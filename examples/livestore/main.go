// Livestore: the wall-clock counterpart of the quickstart. It starts the
// REST storage emulator in-process (what `azurestore` serves), talks to it
// through the Go client SDK over real HTTP, and demonstrates the paper's
// ServerBusy/retry discipline against the emulator's scalability-target
// throttling.
//
//	go run ./examples/livestore
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/rest"
	"azurebench/internal/retry"
	"azurebench/internal/sdk"
	"azurebench/internal/tablestore"
)

func main() {
	// Serve the emulator on an ephemeral local port, throttled to a tiny
	// per-queue rate so we can watch the retry policy at work.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	server := rest.NewServer(rest.Options{Throttle: true, QueueOpsPerSec: 40})
	go http.Serve(ln, server)
	endpoint := "http://" + ln.Addr().String()
	fmt.Printf("emulator listening on %s\n", endpoint)

	// The paper's discipline — sleep, then reissue, on ServerBusy only —
	// with a 100 ms backoff and ten retries.
	policy := retry.Paper(100 * time.Millisecond)
	policy.MaxAttempts = 11
	client := sdk.New(endpoint, nil, policy)

	// Blob over the wire.
	blob := client.Blob()
	must(blob.CreateContainer("live"))
	data := payload.Synthetic(1, 256<<10).Materialize()
	must(blob.Upload("live", "large.bin", data))
	got, err := blob.Download("live", "large.bin")
	must(err)
	fmt.Printf("blob: %d bytes over HTTP, intact=%v\n", len(got), len(got) == len(data))

	// Table over the wire.
	table := client.Table()
	must(table.Create("LiveRuns"))
	etag, err := table.Insert("LiveRuns", &tablestore.Entity{
		PartitionKey: "p", RowKey: "r",
		Props: map[string]tablestore.Value{"Count": tablestore.Int64(12345678901)},
	})
	must(err)
	e, err := table.Get("LiveRuns", "p", "r")
	must(err)
	fmt.Printf("table: Int64 survived JSON round trip: %d (etag %q)\n", e.Props["Count"].I, etag)

	// Queue with throttling: 80 back-to-back puts against a 40 ops/s
	// budget force 503s that the SDK's retry policy absorbs.
	queue := client.Queue()
	must(queue.Create("live-tasks"))
	start := time.Now()
	for i := 0; i < 80; i++ {
		must(queue.Put("live-tasks", []byte(fmt.Sprintf("job %d", i)), 0))
	}
	elapsed := time.Since(start)
	n, err := queue.ApproximateCount("live-tasks")
	must(err)
	fmt.Printf("queue: 80 puts against a 40 ops/s throttle took %v (all delivered: %v)\n",
		elapsed.Round(10*time.Millisecond), n == 80)
	if elapsed < 500*time.Millisecond {
		fmt.Println("queue: (throttle did not engage — unexpected on a fast machine)")
	} else {
		fmt.Println("queue: ServerBusy responses were absorbed by the paper's sleep-and-retry policy")
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
