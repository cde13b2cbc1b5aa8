package tracegraph

import (
	"flag"
	"os"
	"testing"

	"azurebench/internal/trace"
)

var updateTail = flag.Bool("update-tail", false, "rewrite testdata/tail.golden from testdata/tail.jsonl")

// TestRenderTailGolden pins `aztrace tail`'s table over a committed
// synthetic trace whose tails sit in all eleven stages: the stage
// columns come out in name order and nothing in the table depends on
// when it was rendered.
func TestRenderTailGolden(t *testing.T) {
	in, err := os.Open("testdata/tail.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	file, err := trace.ReadJSONL(in)
	if err != nil {
		t.Fatal(err)
	}
	tr := Trace(file)
	got := RenderTail(tr.TailAttribution(90), 90)

	const golden = "testdata/tail.golden"
	if *updateTail {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("tail table drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
