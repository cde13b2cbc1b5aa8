// Bag-of-tasks Monte Carlo π on the paper's generic application framework
// (Section III, Figure 3): a web role submits sampling tasks to the task
// assignment queue, worker roles drain it, per-task results land in Table
// storage, and the termination-indicator queue drives completion. One
// worker is deliberately crashed mid-task to demonstrate the queue's
// built-in fault tolerance (the claimed task reappears and is redone).
//
//	go run ./examples/bagoftasks -workers 8 -tasks 64
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"strconv"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/fabric"
	"azurebench/internal/model"
	"azurebench/internal/payload"
	"azurebench/internal/roles"
	"azurebench/internal/sim"
	"azurebench/internal/tablestore"
)

func main() {
	workers := flag.Int("workers", 8, "worker role instances")
	tasks := flag.Int("tasks", 64, "sampling tasks")
	samplesPer := flag.Int("samples", 200_000, "samples per task")
	inject := flag.Bool("inject-fault", true, "crash one worker mid-task")
	flag.Parse()

	env := sim.NewEnv(2012)
	c := cloud.New(env, model.Default())

	// Result table, created up front.
	setup := c.NewClient("setup", model.Small)
	env.Go("setup", func(p *sim.Proc) {
		if _, err := setup.CreateTableIfNotExists(p, "mcpi"); err != nil {
			log.Fatal(err)
		}
	})
	env.Run()

	var taskBodies []payload.Payload
	for i := 0; i < *tasks; i++ {
		taskBodies = append(taskBodies, payload.String(strconv.Itoa(i)))
	}

	faultArmed := *inject
	res, err := roles.RunBagOfTasks(roles.BagOfTasksConfig{
		Cloud:      c,
		Name:       "mcpi",
		Workers:    *workers,
		Tasks:      taskBodies,
		Visibility: 2 * time.Minute,
		Work: func(ctx *fabric.Context, task roles.Task) error {
			p, cl := ctx.Proc, ctx.Client
			id, err := strconv.Atoi(string(task.Body.Materialize()))
			if err != nil {
				return err
			}
			if faultArmed && ctx.Instance.ID() == 0 {
				faultArmed = false
				fmt.Printf("[fault] recycling %s while it holds task %d\n", ctx.Instance.Name(), id)
				ctx.Instance.RequestSelfRecycle()
				ctx.Checkpoint() // never returns; task claim is lost
			}
			// Deterministic sampling: the task id seeds the stream.
			rng := sim.NewRand(int64(id) + 1)
			in := 0
			for s := 0; s < *samplesPer; s++ {
				x, y := rng.Float64(), rng.Float64()
				if x*x+y*y <= 1 {
					in++
				}
			}
			p.Sleep(2 * time.Second) // the compute the samples would cost
			_, err = cl.InsertEntity(p, "mcpi", &tablestore.Entity{
				PartitionKey: "results",
				RowKey:       fmt.Sprintf("task-%05d", id),
				Props: map[string]tablestore.Value{
					"InCircle": tablestore.Int64(int64(in)),
					"Samples":  tablestore.Int64(int64(*samplesPer)),
					"Worker":   tablestore.String(ctx.Instance.Name()),
				},
			})
			return err
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Aggregate the per-task results (engine read; the run is over).
	entities, err := c.Table.QueryAll("mcpi", "PartitionKey eq 'results'")
	if err != nil {
		log.Fatal(err)
	}
	var in, total int64
	for _, row := range entities {
		inCircle, _ := row.Prop("InCircle")
		samples, _ := row.Prop("Samples")
		in += inCircle.I
		total += samples.I
	}
	pi := 4 * float64(in) / float64(total)
	fmt.Printf("π ≈ %.6f (error %.2e) from %d samples across %d task results\n",
		pi, math.Abs(pi-math.Pi), total, len(entities))
	fmt.Printf("completed=%d tasks, worker restarts=%d, virtual time=%v\n",
		res.Completed, res.WorkerRestarts, res.Elapsed.Round(time.Second))
	if res.WorkerRestarts > 0 && res.Completed >= *tasks {
		fmt.Println("fault tolerance: the crashed worker's task reappeared and was completed by another instance")
	}
}
