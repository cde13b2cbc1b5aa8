// Package telemetry samples the simulated cloud's queueing stations on
// the virtual clock: per-partition-server queue depth, utilization, served
// throughput and throttle-reject rate over fixed intervals. Timelines
// rendered from the samples sit alongside the paper's figures and make the
// saturation points (500 msg/s per queue, 500 entity/s per partition, the
// account cap) directly visible in experiment output, instead of having to
// be inferred from a bent throughput curve.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"azurebench/internal/metrics"
	"azurebench/internal/sim"
	"azurebench/internal/storecommon"
)

// Station is one observable queueing station: a simulated partition
// server plus the admission limiter guarding it (nil when unthrottled).
type Station struct {
	Name    string
	Res     *sim.Resource
	Limiter *storecommon.RateLimiter
}

// Sample is one per-station observation. Rates and utilization are
// computed over the interval since the station was previously observed.
type Sample struct {
	At            time.Duration `json:"at_ns"`
	Station       string        `json:"station"`
	QueueLen      int           `json:"queue_len"`
	InUse         int           `json:"in_use"`
	Capacity      int           `json:"capacity"`
	Util          float64       `json:"util"`            // busy fraction of capacity over the interval
	OpsPerSec     float64       `json:"ops_per_sec"`     // acquires granted per second
	RejectsPerSec float64       `json:"rejects_per_sec"` // limiter refusals per second
}

// prevStat is the cumulative state of a station at its last observation,
// used to turn the resource's monotonic integrals into interval rates.
type prevStat struct {
	at       time.Duration
	busy     time.Duration
	acquired uint64
	rejects  uint64
}

// Sampler collects station samples on a fixed virtual-time interval.
type Sampler struct {
	// Label identifies the sampled workload in exports (e.g.
	// "fig6/w=32/64KB").
	Label string

	interval time.Duration
	samples  []Sample
	prev     map[string]prevStat
	lastTick time.Duration
}

// NewSampler creates a sampler that observes every interval (<= 0 means
// 250ms).
func NewSampler(label string, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	return &Sampler{Label: label, interval: interval, prev: map[string]prevStat{}}
}

// Observe snapshots every station at virtual time now. Stations are
// re-enumerated per call so lazily created partitions join the timeline
// when they appear; a station first seen mid-run has its cumulative
// counters attributed to the current interval.
func (s *Sampler) Observe(now time.Duration, stations []Station) {
	for _, st := range stations {
		rs := st.Res.Stats()
		var rejects uint64
		if st.Limiter != nil {
			rejects = st.Limiter.Rejects()
		}
		prev, ok := s.prev[st.Name]
		if !ok {
			prev = prevStat{at: s.lastTick}
		}
		dt := (now - prev.at).Seconds()
		sm := Sample{
			At:       now,
			Station:  st.Name,
			QueueLen: rs.QueueLen,
			InUse:    rs.InUse,
			Capacity: st.Res.Capacity(),
		}
		if dt > 0 {
			sm.OpsPerSec = float64(rs.Acquired-prev.acquired) / dt
			dRej := rejects - prev.rejects
			if rejects < prev.rejects {
				// The station's limiter was recreated (idle-evicted from a
				// LimiterPool): its counter restarted from zero, so the whole
				// new count belongs to this interval.
				dRej = rejects
			}
			sm.RejectsPerSec = float64(dRej) / dt
			if cap := st.Res.Capacity(); cap > 0 {
				sm.Util = (rs.Busy - prev.busy).Seconds() / dt / float64(cap)
			}
		}
		s.samples = append(s.samples, sm)
		s.prev[st.Name] = prevStat{at: now, busy: rs.Busy, acquired: rs.Acquired, rejects: rejects}
	}
	s.lastTick = now
}

// Watch runs the sampler as a simulation process: every interval of
// virtual time it observes stations(), stopping after the tick on which no
// other event is pending (so an otherwise-finished Env.Run still drains,
// even when service processes such as a geo-replication stream stay
// parked forever — the sampler must not be the one thing that keeps
// virtual time advancing). Observation only reads statistics — it never contends for
// resources or consumes randomness, so the simulated workload's
// virtual-time trajectory is unchanged by sampling.
func (s *Sampler) Watch(env *sim.Env, stations func() []Station) {
	env.Go("telemetry-sampler", func(p *sim.Proc) {
		for {
			p.Sleep(s.interval)
			s.Observe(env.Now(), stations())
			if env.Pending() == 0 {
				return
			}
		}
	})
}

// stationTotals ranks stations by how contended they were.
type stationTotals struct {
	name     string
	rejects  float64 // integral of reject rate
	queue    float64 // integral of queue length
	business float64 // integral of utilization
}

func (s *Sampler) totals() []stationTotals {
	agg := map[string]*stationTotals{}
	var order []string
	for _, sm := range s.samples {
		t := agg[sm.Station]
		if t == nil {
			t = &stationTotals{name: sm.Station}
			agg[sm.Station] = t
			order = append(order, sm.Station)
		}
		dt := s.interval.Seconds()
		t.rejects += sm.RejectsPerSec * dt
		t.queue += float64(sm.QueueLen)
		t.business += sm.Util
	}
	out := make([]stationTotals, 0, len(order))
	for _, n := range order {
		out = append(out, *agg[n])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].rejects != out[j].rejects {
			return out[i].rejects > out[j].rejects
		}
		if out[i].queue != out[j].queue {
			return out[i].queue > out[j].queue
		}
		return out[i].name < out[j].name
	})
	return out
}

// RenderTop draws per-station timelines for the n most contended stations
// (ranked by throttle rejects, then queue depth; n <= 0 means all). Each
// station gets an aligned table of queue depth, units in use, utilization,
// served ops/s and throttle rejects/s per sampling interval.
func (s *Sampler) RenderTop(n int) string {
	if len(s.samples) == 0 {
		return "(no telemetry samples)\n"
	}
	totals := s.totals()
	elided := 0
	if n > 0 && len(totals) > n {
		elided = len(totals) - n
		totals = totals[:n]
	}
	byStation := map[string][]Sample{}
	for _, sm := range s.samples {
		byStation[sm.Station] = append(byStation[sm.Station], sm)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "station telemetry%s (interval %v)\n", labelSuffix(s.Label), s.interval)
	for _, t := range totals {
		sms := byStation[t.name]
		fmt.Fprintf(&b, "station %s (capacity %d)\n", t.name, sms[0].Capacity)
		table := [][]string{{"t(s)", "qlen", "inuse", "util", "ops/s", "rej/s"}}
		for _, sm := range sms {
			table = append(table, []string{
				fmt.Sprintf("%.2f", sm.At.Seconds()),
				fmt.Sprintf("%d", sm.QueueLen),
				fmt.Sprintf("%d", sm.InUse),
				fmt.Sprintf("%.2f", sm.Util),
				fmt.Sprintf("%.0f", sm.OpsPerSec),
				fmt.Sprintf("%.0f", sm.RejectsPerSec),
			})
		}
		metrics.WriteAligned(&b, table)
	}
	if elided > 0 {
		fmt.Fprintf(&b, "(%d less-contended stations elided)\n", elided)
	}
	return b.String()
}

func labelSuffix(label string) string {
	if label == "" {
		return ""
	}
	return ": " + label
}

// WriteJSONL writes one JSON object per sample to w, each tagged with the
// sampler's label — the export behind azurebench's -statsfile flag.
func (s *Sampler) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sm := range s.samples {
		rec := struct {
			Label string `json:"label,omitempty"`
			Sample
		}{s.Label, sm}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}
