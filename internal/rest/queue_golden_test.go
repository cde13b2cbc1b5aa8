package rest

import (
	"flag"
	"os"
	"testing"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/vclock"
)

var updateQueueGolden = flag.Bool("update-queue-golden", false, "rewrite testdata/queue-peek.golden (queue-get.golden is the old writer's, and stays)")

// The full Get and Peek Messages response bytes for a two-message queue at
// a fixed time. queue-get.golden was generated on the commit before the
// queue bodies left encoding/xml (xml.Header + xml.MarshalIndent of the
// response struct) and has not been edited since; queue-peek.golden is the
// same response without the <TimeNextVisible> line a peeked message does
// not have.
func TestQueueResponseGoldens(t *testing.T) {
	clock := &vclock.Manual{}
	srv := NewServer(Options{Clock: clock})
	if err := srv.Queue.CreateQueue("tasks"); err != nil {
		t.Fatal(err)
	}
	every := make([]byte, 256)
	for i := range every {
		every[i] = byte(i)
	}
	if _, err := srv.Queue.Put("tasks", payload.Bytes(every), 0); err != nil {
		t.Fatal(err)
	}
	clock.Advance(90 * time.Second)
	if _, err := srv.Queue.Put("tasks", payload.String("second <task> & co"), time.Hour); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)

	check := func(golden, target string, update bool) {
		t.Helper()
		got := serve(t, srv, "GET", target, nil).Body.Bytes()
		if update {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("GET %s drifted from %s\n--- got ---\n%s\n--- want ---\n%s", target, golden, got, want)
		}
	}
	check("testdata/queue-peek.golden", "/queue/tasks/messages?numofmessages=2&peekonly=true", *updateQueueGolden)
	check("testdata/queue-get.golden", "/queue/tasks/messages?numofmessages=2&visibilitytimeout=45", false)

	// Both messages are now claimed: the list is empty, on one line.
	const empty = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<QueueMessagesList></QueueMessagesList>"
	if got := serve(t, srv, "GET", "/queue/tasks/messages?numofmessages=2", nil).Body.String(); got != empty {
		t.Errorf("empty Get Messages response = %q, want %q", got, empty)
	}
}
