package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// BenchmarkEventThroughput measures raw kernel speed: how many
// schedule-sleep-wake cycles per second the DES sustains. This bounds how
// fast paper-scale experiments regenerate.
func BenchmarkEventThroughput(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv(1)
	e.Go("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkResourceContention measures kernel performance under FIFO
// queueing: 16 processes contending for a capacity-1 resource.
func BenchmarkResourceContention(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv(1)
	r := NewResource(e, "srv", 1)
	per := b.N/16 + 1
	for w := 0; w < 16; w++ {
		e.Go("w", func(p *Proc) {
			for i := 0; i < per; i++ {
				r.Use(p, time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcessSwitch measures one hand-over of control between two
// processes: a token goes back and forth through two Stores (the shape of
// the bench harness's sim.switch_ns replay), two switches per round trip,
// reported as ns/switch.
func BenchmarkProcessSwitch(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv(1)
	ping, pong := NewStore[int](e, "ping"), NewStore[int](e, "pong")
	e.Go("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Put(i)
			pong.Get(p)
		}
	})
	e.Go("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			pong.Put(ping.Get(p))
		}
	})
	b.ResetTimer()
	e.Run()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/switch")
}

// BenchmarkEventQueue is the hold model of the pending-event queue: with
// pending events queued, pop the next one and push it back up to 1ms later,
// as a process that sleeps again does. One op is one event; DESIGN.md §17
// compares it with the 4-ary heap the queue replaced.
func BenchmarkEventQueue(b *testing.B) {
	for _, pending := range []int{16, 64, 4096, 100000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			r := NewRand(1)
			var q eventQueue
			var seq uint64
			hold := func(at time.Duration) {
				seq++
				q.push(event{at: at + time.Duration(r.Intn(int(time.Millisecond))), seq: seq})
			}
			for i := 0; i < pending; i++ {
				hold(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hold(q.pop().at)
			}
		})
	}
}

// BenchmarkKernelScale prices an event against the number of processes:
// each of procs processes loops a five-step program on a 64-unit station
// (way in, queue, service, release, way back) and a 20–60ms think time,
// for one virtual second: about 97 events per process, so the
// 100 000-process case is a single run of ≈ 10 M events. The loop runs on
// a coroutine per process (coro) or as the program of a process with no
// coroutine (cont), the same events in the same order either way. B/proc
// is the heap and stack the run holds halfway through, per process.
func BenchmarkKernelScale(b *testing.B) {
	for _, leg := range []string{"coro", "cont"} {
		for _, procs := range []int{1000, 10000, 100000} {
			b.Run(fmt.Sprintf("%s/procs=%d", leg, procs), func(b *testing.B) {
				var events uint64
				var perProc float64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					before := heldBytes()
					b.StartTimer()
					e := NewEnv(1)
					srv := NewResource(e, "srv", 64)
					for k := 0; k < procs; k++ {
						if leg == "cont" {
							e.GoCont("client", &scaleClient{srv: srv})
							continue
						}
						e.Go("client", func(p *Proc) {
							for p.Now() < time.Second {
								p.Exec(Sleep(500*time.Microsecond), Acquire(srv), Sleep(time.Microsecond), Release(srv), Sleep(500*time.Microsecond))
								p.Sleep(time.Duration(20+p.Rand().Intn(40)) * time.Millisecond)
							}
						})
					}
					e.RunUntil(500 * time.Millisecond)
					b.StopTimer()
					perProc = float64(heldBytes()-before) / float64(procs)
					b.StartTimer()
					e.Run()
					events += e.Events()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
				b.ReportMetric(perProc, "B/proc")
			})
		}
	}
}

// scaleClient is BenchmarkKernelScale's loop as a continuation: a turn's
// program, then, where it ends, the think time drawn and slept.
type scaleClient struct {
	srv   *Resource
	think bool
}

func (c *scaleClient) Resume(p *Proc) {
	if c.think = !c.think; c.think {
		if p.Now() < time.Second {
			p.Then(Sleep(500*time.Microsecond), Acquire(c.srv), Sleep(time.Microsecond), Release(c.srv), Sleep(500*time.Microsecond), Call(c))
		}
		return
	}
	p.Then(Sleep(time.Duration(20+p.Rand().Intn(40))*time.Millisecond), Call(c))
}

// heldBytes is the heap in use after a collection, plus goroutine stacks.
func heldBytes() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc + m.StackInuse)
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
