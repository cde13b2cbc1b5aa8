package netmodel

import (
	"fmt"
	"time"
)

// WANLink models the inter-datacenter connection of a geo-replicated
// account, parameterized separately from the intra-DC fabric: a long
// propagation RTT and asymmetric per-direction bandwidth (egress from the
// primary region is typically provisioned wider than the failback path,
// and cloud cross-region measurements — the cockroach cloud-report
// network scripts this model follows — show the two directions rarely
// match). It is an analytical cost model like the rest of this package:
// the DES charges its delays against a sim.Resource station, and the
// max-min solver can include its directions as Link capacities.
type WANLink struct {
	Name string
	// RTT is the inter-region round trip (propagation + switching).
	RTT time.Duration
	// ForwardBps is the primary->secondary shipping bandwidth (bytes/s).
	ForwardBps float64
	// ReverseBps is the secondary->primary bandwidth (bytes/s), used by
	// the failback stream after a promotion.
	ReverseBps float64
}

// Validate reports whether the link is usable.
func (l WANLink) Validate() error {
	if l.RTT <= 0 {
		return fmt.Errorf("netmodel: WAN link %q has non-positive RTT %v", l.Name, l.RTT)
	}
	if l.ForwardBps <= 0 || l.ReverseBps <= 0 {
		return fmt.Errorf("netmodel: WAN link %q has non-positive bandwidth (fwd %g, rev %g)",
			l.Name, l.ForwardBps, l.ReverseBps)
	}
	return nil
}

// ForwardDelay is the one-way time for a batch of size bytes shipped
// primary->secondary: half the RTT of propagation plus serialization at
// the forward bandwidth.
func (l WANLink) ForwardDelay(size int64) time.Duration {
	return l.RTT/2 + xferAt(size, l.ForwardBps)
}

// ReverseDelay is the one-way time for size bytes on the failback
// direction.
func (l WANLink) ReverseDelay(size int64) time.Duration {
	return l.RTT/2 + xferAt(size, l.ReverseBps)
}

// xferAt converts a byte count over a bytes/s rate into a duration.
func xferAt(size int64, bps float64) time.Duration {
	if size <= 0 || bps <= 0 {
		return 0
	}
	return time.Duration(float64(size) / bps * float64(time.Second))
}
