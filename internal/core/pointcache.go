package core

import (
	"sync"

	"azurebench/internal/model"
)

// pointKey is everything a shared point's statistics depend on: its runner
// and arguments, and the Config fields the shared runners read.
// TestPointKeyCoversConfig fails when Config gains a field that is neither
// here nor on its list of fields no shared runner reads.
type pointKey struct {
	runner    string
	w, sizeKB int

	Seed                                                      int64
	VM                                                        model.VMSize
	Params                                                    model.Params
	BlobMB, ChunkMB, ChunkReads, QueueMessages, TableEntities int
}

// sharedPoint is one key's computation; done closes once st and kernel, or
// failure, are set.
type sharedPoint struct {
	done    chan struct{}
	st      map[string]phaseStats
	kernel  KernelStats
	failure any
}

// pointCache is what NewSuite's suite, its lanes and its withParams
// sub-suites have simulated in this run, by key.
type pointCache struct {
	mu sync.Mutex
	m  map[pointKey]*sharedPoint
}

// shared returns the point run builds for (runner, w, sizeKB), simulating
// it once per run: a later caller gets the first one's statistics and
// kernel counts, and one that arrives mid-computation gives up its pool slot
// until they are ready. A point whose whole output is not its statistics is
// never shared: with TraceOps its ops belong in -tracefile, with Telemetry
// its labelled sampler in -statsfile, and an armed checkpoint arms one
// environment. A panic is not kept: every waiter re-raises it, and the next
// caller simulates the point again.
func (s *Suite) shared(runner string, w, sizeKB int, run func() *point) *point {
	if s.traceLog != nil || s.cfg.Telemetry || s.ckpt != nil {
		return run()
	}
	c := s.cfg
	key := pointKey{runner, w, sizeKB, c.Seed, c.VM, c.Params, c.BlobMB, c.ChunkMB, c.ChunkReads, c.QueueMessages, c.TableEntities}
	s.points.mu.Lock()
	sp, hit := s.points.m[key]
	if !hit {
		sp = &sharedPoint{done: make(chan struct{})}
		s.points.m[key] = sp
	}
	s.points.mu.Unlock()
	if hit {
		select {
		case <-sp.done:
		default:
			<-s.slots
			<-sp.done
			s.slots <- struct{}{}
		}
		if sp.failure != nil {
			panic(sp.failure)
		}
		return &point{s: s, st: sp.st, kernel: sp.kernel}
	}
	defer func() {
		if r := recover(); r != nil {
			sp.failure = r
			s.points.mu.Lock()
			delete(s.points.m, key)
			s.points.mu.Unlock()
			close(sp.done)
			panic(r)
		}
	}()
	pt := run()
	pt.retire()
	sp.st, sp.kernel = pt.st, pt.kernel
	close(sp.done)
	return pt
}
