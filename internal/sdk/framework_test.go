package sdk

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"azurebench/internal/rest"
)

func TestLiveTaskPoolDistributesWork(t *testing.T) {
	c, _ := newStack(t, rest.Options{})
	q := c.Queue()
	if err := q.Create("live-tasks"); err != nil {
		t.Fatal(err)
	}
	pool := q.NewLiveTaskPool("live-tasks", time.Minute)
	const tasks = 30
	for i := 0; i < tasks; i++ {
		if err := pool.Submit([]byte(fmt.Sprintf("task-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var done atomic.Int64
	var wg sync.WaitGroup
	seen := sync.Map{}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				task, ok, err := pool.TryNext()
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					return
				}
				if _, dup := seen.LoadOrStore(string(task.Body), true); dup {
					t.Errorf("task %s claimed twice", task.Body)
					return
				}
				if err := pool.Complete(task); err != nil {
					t.Error(err)
					return
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	if done.Load() != tasks {
		t.Fatalf("completed %d of %d", done.Load(), tasks)
	}
	if n, _ := q.ApproximateCount("live-tasks"); n != 0 {
		t.Fatalf("%d tasks left in the pool", n)
	}
}

func TestListEndpoints(t *testing.T) {
	c, _ := newStack(t, rest.Options{})
	if err := c.Blob().CreateContainer("aa-one"); err != nil {
		t.Fatal(err)
	}
	if err := c.Blob().CreateContainer("bb-two"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Blob().ListContainers("aa-")
	if err != nil || len(got) != 1 || got[0] != "aa-one" {
		t.Fatalf("ListContainers = %v, %v", got, err)
	}
	all, err := c.Blob().ListContainers("")
	if err != nil || len(all) != 2 {
		t.Fatalf("ListContainers(all) = %v, %v", all, err)
	}
	if err := c.Queue().Create("qq-1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Queue().Create("qq-2"); err != nil {
		t.Fatal(err)
	}
	queues, err := c.Queue().List("qq-")
	if err != nil || len(queues) != 2 {
		t.Fatalf("ListQueues = %v, %v", queues, err)
	}
}
