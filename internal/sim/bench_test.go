package sim

import (
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

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
