// Quickstart: stand up a simulated Azure storage account and exercise the
// three storage services the way the paper's Section II describes them —
// blobs for bulk data, queues for coordination, tables for structured
// records. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/model"
	"azurebench/internal/payload"
	"azurebench/internal/sim"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
)

func main() {
	env := sim.NewEnv(42)
	c := cloud.New(env, model.Default())
	client := c.NewClient("quickstart-vm", model.Small)

	env.Go("quickstart", func(p *sim.Proc) {
		// --- Blob storage: upload a 4 MB block blob and read it back ---
		must(client.CreateContainer(p, "demo"))
		data := payload.Synthetic(7, 4<<20)
		must(client.UploadBlockBlob(p, "demo", "dataset.bin", data))
		got, err := client.Download(p, "demo", "dataset.bin")
		must(err)
		fmt.Printf("blob: uploaded and downloaded %d bytes, intact=%v (virtual t=%v)\n",
			got.Len(), payload.Equal(got, data), p.Now().Round(time.Millisecond))

		// --- Queue storage: the classic task-message round trip ---
		must(client.CreateQueue(p, "demo-tasks"))
		_, err = client.PutMessage(p, "demo-tasks", payload.String("process dataset.bin"))
		must(err)
		msg, ok, err := client.GetMessage(p, "demo-tasks", time.Minute)
		must(err)
		if !ok {
			log.Fatal("queue unexpectedly empty")
		}
		fmt.Printf("queue: dequeued %q (invisible until %v)\n",
			msg.Body.Materialize(), msg.NextVisible.Format(time.TimeOnly))
		must(client.DeleteMessage(p, "demo-tasks", msg.ID, msg.PopReceipt))

		// --- Table storage: schemaless entities + a filtered query ---
		must(client.CreateTable(p, "runs"))
		for i, status := range []string{"ok", "ok", "failed"} {
			e := &tablestore.Entity{
				PartitionKey: "experiment-1",
				RowKey:       fmt.Sprintf("run-%d", i),
				Props: map[string]tablestore.Value{
					"Status":  tablestore.String(status),
					"Samples": tablestore.Int32(int32(1000 * (i + 1))),
				},
			}
			_, err := client.InsertEntity(p, "runs", e)
			must(err)
		}
		res, err := client.QueryEntities(p, "runs", "experiment-1",
			"Status eq 'ok' and Samples ge 2000", 0, tablestore.Continuation{})
		must(err)
		fmt.Printf("table: filter matched %d of 3 entities\n", len(res.Entities))

		// --- Optimistic concurrency: the ETag protocol ---
		row, err := client.GetEntity(p, "runs", "experiment-1", "run-0")
		must(err)
		stale := row.ETag()
		e := row.Clone()
		e.Props["Status"] = tablestore.String("archived")
		_, err = client.UpdateEntity(p, "runs", e, stale) // matching tag: ok
		must(err)
		_, err = client.UpdateEntity(p, "runs", e, stale) // stale now: rejected
		fmt.Printf("table: stale-ETag update rejected=%v; wildcard update ok=%v\n",
			storecommon.IsPreconditionFailed(err), func() bool {
				_, err := client.UpdateEntity(p, "runs", e, storecommon.ETagAny)
				return err == nil
			}())
	})
	env.Run()
	fmt.Printf("done: %d storage ops in %v of virtual time\n",
		c.Stats().Ops, env.Now().Round(time.Millisecond))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
