// Iterative MapReduce on Azure primitives, in the style of Twister4Azure
// [Ekanayake et al.], which the paper cites as proof of its framework: a
// k-means clustering where each iteration's map tasks flow through the
// task queue, centroids are broadcast through Blob storage, partial sums
// are emitted to Table storage, and the Algorithm 2 queue barrier
// separates iterations.
//
//	go run ./examples/mapreduce -workers 8 -points 20000 -k 4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/model"
	"azurebench/internal/payload"
	"azurebench/internal/roles"
	"azurebench/internal/sim"
	"azurebench/internal/tablestore"
)

type point struct{ X, Y float64 }

func main() {
	workers := flag.Int("workers", 8, "map workers")
	nPoints := flag.Int("points", 20000, "points to cluster")
	k := flag.Int("k", 4, "clusters")
	maxIter := flag.Int("iters", 12, "max iterations")
	flag.Parse()

	// Synthetic blobs of points around k true centers.
	truth := make([]point, *k)
	rng := sim.NewRand(99)
	for i := range truth {
		truth[i] = point{X: float64(i*10 + 5), Y: float64((i%2)*10 + 3)}
	}
	points := make([]point, *nPoints)
	for i := range points {
		c := truth[i%*k]
		points[i] = point{X: c.X + rng.NormFloat64(), Y: c.Y + rng.NormFloat64()}
	}

	env := sim.NewEnv(2012)
	c := cloud.New(env, model.Default())

	const (
		container  = "kmeans"
		centBlob   = "centroids.json"
		sumsTable  = "kmeanssums"
		mapQueue   = "kmeans-map"
		syncQ      = "kmeans-sync"
		iterLabels = "iteration-%03d"
	)

	// The driver (web role) seeds storage: point-range blobs + initial
	// centroids.
	driver := c.NewClient("driver", model.Large)
	env.Go("seed", func(p *sim.Proc) {
		must(driver.CreateContainer(p, container))
		must(err2(driver.CreateTableIfNotExists(p, sumsTable)))
		must(roles.EnsureQueues(p, driver, mapQueue, syncQ))
		for w := 0; w < *workers; w++ {
			lo, n := split(*nPoints, *workers, w)
			buf, err := json.Marshal(points[lo : lo+n])
			must(err)
			must(driver.UploadBlockBlob(p, container, chunkBlob(w), payload.Bytes(buf)))
		}
		init := make([]point, *k)
		for i := range init {
			init[i] = points[i*17%len(points)] // arbitrary distinct seeds
		}
		must(putCentroids(p, driver, container, centBlob, init))
	})
	env.Run()

	iterations := 0
	var finalShift float64

	// Map workers: each iteration, claim your chunk task, read centroids,
	// emit partial sums, hit the barrier.
	for w := 0; w < *workers; w++ {
		w := w
		cl := c.NewClient(fmt.Sprintf("mapper%d", w), model.Medium)
		env.Go(fmt.Sprintf("mapper%d", w), func(p *sim.Proc) {
			b := roles.NewBarrier(syncQ, *workers+1) // +1: the driver joins too
			for iter := 0; iter < *maxIter; iter++ {
				cents, err := getCentroids(p, cl, container, centBlob)
				must(err)
				raw, err := cl.Download(p, container, chunkBlob(w))
				must(err)
				var mine []point
				must(json.Unmarshal(raw.Materialize(), &mine))
				// Assign + partial sums.
				sumX := make([]float64, len(cents))
				sumY := make([]float64, len(cents))
				cnt := make([]int64, len(cents))
				for _, pt := range mine {
					best, bestD := 0, math.Inf(1)
					for ci, cc := range cents {
						d := (pt.X-cc.X)*(pt.X-cc.X) + (pt.Y-cc.Y)*(pt.Y-cc.Y)
						if d < bestD {
							best, bestD = ci, d
						}
					}
					sumX[best] += pt.X
					sumY[best] += pt.Y
					cnt[best]++
				}
				p.Sleep(time.Duration(len(mine)/2) * time.Millisecond) // map compute
				for ci := range cents {
					e := &tablestore.Entity{
						PartitionKey: fmt.Sprintf(iterLabels, iter),
						RowKey:       fmt.Sprintf("w%03d-c%03d", w, ci),
						Props: map[string]tablestore.Value{
							"SumX":  tablestore.Double(sumX[ci]),
							"SumY":  tablestore.Double(sumY[ci]),
							"Count": tablestore.Int64(cnt[ci]),
							"C":     tablestore.Int32(int32(ci)),
						},
					}
					_, err := cl.InsertEntity(p, sumsTable, e)
					must(err)
				}
				must(b.Wait(p, cl)) // map barrier
				must(b.Wait(p, cl)) // reduce barrier (driver updates centroids)
			}
		})
	}

	// Driver: after each map barrier, reduce the partial sums, write new
	// centroids, decide convergence.
	env.Go("driver", func(p *sim.Proc) {
		b := roles.NewBarrier(syncQ, *workers+1)
		for iter := 0; iter < *maxIter; iter++ {
			must(b.Wait(p, driver)) // wait for all map outputs
			cents, err := getCentroids(p, driver, container, centBlob)
			must(err)
			sumX := make([]float64, len(cents))
			sumY := make([]float64, len(cents))
			cnt := make([]int64, len(cents))
			res, err := driver.QueryEntities(p, sumsTable, fmt.Sprintf(iterLabels, iter),
				fmt.Sprintf("PartitionKey eq '%s'", fmt.Sprintf(iterLabels, iter)), 0, tablestore.Continuation{})
			must(err)
			for _, row := range res.Entities {
				c, _ := row.Prop("C")
				x, _ := row.Prop("SumX")
				y, _ := row.Prop("SumY")
				n, _ := row.Prop("Count")
				sumX[c.I] += x.F
				sumY[c.I] += y.F
				cnt[c.I] += n.I
			}
			shift := 0.0
			next := make([]point, len(cents))
			for ci := range cents {
				if cnt[ci] == 0 {
					next[ci] = cents[ci]
					continue
				}
				next[ci] = point{X: sumX[ci] / float64(cnt[ci]), Y: sumY[ci] / float64(cnt[ci])}
				shift += math.Hypot(next[ci].X-cents[ci].X, next[ci].Y-cents[ci].Y)
			}
			must(putCentroids(p, driver, container, centBlob, next))
			iterations = iter + 1
			finalShift = shift
			// All parties run the fixed iteration count: an early break
			// here would leave the mappers polling the barrier forever
			// (convergence is reported, not acted on — like a fixed-round
			// Twister job).
			must(b.Wait(p, driver)) // release mappers into next iteration
		}
	})
	env.Run()

	cents, _ := loadCentroidsEngine(c, container, centBlob)
	fmt.Printf("k-means: %d points, k=%d, %d iterations, final shift %.2e (virtual time %v)\n",
		*nPoints, *k, iterations, finalShift, env.Now().Round(time.Second))
	for i, cc := range cents {
		fmt.Printf("  centroid %d: (%.2f, %.2f)  true (%.0f, %.0f)\n", i, cc.X, cc.Y, truth[i].X, truth[i].Y)
	}
}

func chunkBlob(w int) string { return fmt.Sprintf("points-%03d.json", w) }

func putCentroids(p *sim.Proc, c *cloud.Client, container, blob string, cents []point) error {
	buf, err := json.Marshal(cents)
	if err != nil {
		return err
	}
	return c.UploadBlockBlob(p, container, blob, payload.Bytes(buf))
}

func getCentroids(p *sim.Proc, c *cloud.Client, container, blob string) ([]point, error) {
	raw, err := c.Download(p, container, blob)
	if err != nil {
		return nil, err
	}
	var cents []point
	if err := json.Unmarshal(raw.Materialize(), &cents); err != nil {
		return nil, err
	}
	return cents, nil
}

func loadCentroidsEngine(c *cloud.Cloud, container, blob string) ([]point, error) {
	raw, _, err := c.Blob.Download(container, blob)
	if err != nil {
		return nil, err
	}
	var cents []point
	err = json.Unmarshal(raw.Materialize(), &cents)
	return cents, err
}

func split(total, w, k int) (start, n int) {
	base := total / w
	extra := total % w
	start = k*base + minInt(k, extra)
	n = base
	if k < extra {
		n++
	}
	return
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func err2(_ bool, err error) error { return err }
