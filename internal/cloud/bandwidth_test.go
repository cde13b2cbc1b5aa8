package cloud

import (
	"testing"

	"azurebench/internal/model"
	"azurebench/internal/payload"
	"azurebench/internal/retry"
	"azurebench/internal/sim"
	"azurebench/internal/storecommon"
)

// TestAccountBandwidthDebit: response bytes are debited post-hoc against
// the account bandwidth bucket, so a burst of large downloads drives the
// balance negative and subsequent requests see ServerBusy until it
// refills.
func TestAccountBandwidthDebit(t *testing.T) {
	env := sim.NewEnv(1)
	prm := model.Default()
	prm.AccountBandwidthBps = 1 << 20   // 1 MB/s account cap
	prm.AccountBandwidthBurst = 4 << 20 // 4 MB burst
	c := New(env, prm)
	cl := c.NewClient("vm0", model.ExtraLarge)
	busy := 0
	env.Go("main", func(p *sim.Proc) {
		if err := cl.CreateContainer(p, "bench"); err != nil {
			t.Error(err)
			return
		}
		if err := cl.UploadBlockBlob(p, "bench", "big", payload.Synthetic(1, 3<<20)); err != nil {
			t.Error(err)
			return
		}
		// Two immediate downloads of 3 MB each: the first is admitted and
		// debits 3 MB; the second overdraws; following small requests are
		// rejected until the bucket refills. One attempt each shows them.
		cl.SetRetryPolicy(retry.Policy{})
		for i := 0; i < 4; i++ {
			if _, err := cl.Download(p, "bench", "big"); storecommon.IsServerBusy(err) {
				busy++
			} else if err != nil {
				t.Error(err)
				return
			}
		}
		// After backing off, service resumes.
		cl.SetRetryPolicy(retry.Paper(prm.RetryBackoff))
		if _, err := cl.Download(p, "bench", "big"); err != nil {
			t.Error(err)
		}
	})
	env.Run()
	if busy == 0 {
		t.Fatal("large downloads never tripped the account bandwidth cap")
	}
}
