package liverun

import (
	"net/http/httptest"
	"strings"
	"testing"

	"azurebench/internal/rest"
	"azurebench/internal/scenario"
)

// liveSpec drives every service through all three arrival processes for
// a second each. The open phases share few client cursors among many
// concurrent ops (queue claims, insert sequence), which is where the live
// path needs its locks — run this under -race.
const liveSpec = `
name: live-smoke
driver: workload
setup:
  tables:
    - name: usertable
      keys: 32
  queues:
    - name: workq
      preload: 8
  containers:
    - name: blobs
      blobs: 8
      blob_kb: 4
phases:
  - name: closed
    duration: 1s
    clients: 4
    arrival:
      kind: closed
      think: 5ms
    ops:
      table_get: 50
      table_update: 20
      table_rmw: 10
      table_delete: 5
      table_scan: 15
    keys:
      dist: zipfian
    target:
      table: usertable
  - name: open
    duration: 1s
    clients: 2
    arrival:
      kind: poisson
      rate: 400
    ops:
      queue_put: 40
      queue_get: 30
      queue_delete: 30
      table_insert: 20
    target:
      queue: workq
      table: usertable
  - name: spikes
    duration: 1s
    clients: 2
    arrival:
      kind: burst
      burst:
        size: 32
        every: 250ms
    ops:
      blob_put: 30
      blob_get: 70
    keys:
      dist: hotflip
      flip_at: 500ms
    target:
      container: blobs
    payload_kb: 4
slo:
  - metric: total.errors
    op: "=="
    value: 0
  - metric: closed.ops
    op: ">"
    value: 100
  - metric: open.ops
    op: ">"
    value: 100
  - metric: spikes.ops
    op: ">="
    value: 128
`

func TestRunLive(t *testing.T) {
	t.Parallel()
	sp, err := scenario.Parse([]byte(liveSpec))
	if err != nil {
		t.Fatal(err)
	}
	srv := rest.NewServer(rest.Options{})
	hs := httptest.NewServer(srv)
	defer hs.Close()

	res, err := Run(hs.URL, sp, 7, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Errorf("SLO failures:\n%s\n%s", res.RenderSLO(), res.Report.Render())
	}
	for _, op := range []string{"table_scan", "table_delete"} {
		if res.Metrics["closed.ops."+op] == 0 {
			t.Errorf("closed phase never ran %s", op)
		}
	}
	// The ops really went through the socket into this server's engines.
	if n, err := srv.Table.EntityCount("usertable"); err != nil || n < 32 {
		t.Errorf("usertable holds %d entities (err=%v), want >= 32", n, err)
	}

	// A second run against the same long-lived store must survive its own
	// leftovers (existing table, rows, container).
	if _, err := Run(hs.URL, sp, 7, scenario.Options{}); err != nil {
		t.Errorf("re-run against a used store: %v", err)
	}
}

func TestRunLiveSetupFailureIsAnError(t *testing.T) {
	t.Parallel() // it spends ~7 s in the retry policy's backoff
	sp, err := scenario.Parse([]byte(liveSpec))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(rest.NewServer(rest.Options{}))
	url := hs.URL
	hs.Close() // nothing listens there now
	_, err = Run(url, sp, 7, scenario.Options{})
	if err == nil || !strings.Contains(err.Error(), "setup: create table usertable") {
		t.Fatalf("err = %v, want a setup error naming the failed step", err)
	}
}
