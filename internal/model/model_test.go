package model

import (
	"testing"
	"time"

	"azurebench/internal/storecommon"
)

func TestVMSizesTableI(t *testing.T) {
	// The catalogue must match the paper's Table I.
	cases := []struct {
		name   string
		cores  float64
		memMB  int
		diskGB int
	}{
		{"ExtraSmall", 0.5, 768, 20},
		{"Small", 1, 1792, 225},
		{"Medium", 2, 3584, 490},
		{"Large", 4, 7168, 1000},
		{"ExtraLarge", 8, 14336, 2040},
	}
	if len(VMSizes) != len(cases) {
		t.Fatalf("catalogue has %d sizes", len(VMSizes))
	}
	for i, c := range cases {
		v := VMSizes[i]
		if v.Name != c.name || v.CPUCores != c.cores || v.MemoryMB != c.memMB || v.DiskGB != c.diskGB {
			t.Errorf("VMSizes[%d] = %+v, want %+v", i, v, c)
		}
	}
}

func TestNICBandwidthMonotone(t *testing.T) {
	for i := 1; i < len(VMSizes); i++ {
		if VMSizes[i].NICBps <= VMSizes[i-1].NICBps {
			t.Fatalf("NIC bandwidth not increasing at %s", VMSizes[i].Name)
		}
	}
}

// TestCalibrationAnchors checks that the default parameters put the
// steady-state service rates where the paper's measurements sit.
func TestCalibrationAnchors(t *testing.T) {
	p := Default()
	mb := func(occ time.Duration) float64 {
		return float64(storecommon.MB) / occ.Seconds() / float64(storecommon.MB)
	}
	// Block-blob upload saturates at ~21 MB/s (1 MB blocks).
	if got := mb(p.BlockPutOcc(storecommon.MB)); got < 18 || got > 24 {
		t.Errorf("block upload rate = %.1f MB/s, want ~21", got)
	}
	// Page-blob upload saturates near the 60 MB/s per-blob cap.
	if got := mb(p.PagePutOcc(storecommon.MB)); got < 50 || got > 62 {
		t.Errorf("page upload rate = %.1f MB/s, want ~55-60", got)
	}
	// Sequential block reads: ~104 MB/s over 3 replicas.
	if got := 3 * mb(p.BlockGetOcc(storecommon.MB)); got < 95 || got > 115 {
		t.Errorf("block-wise read rate = %.1f MB/s, want ~104", got)
	}
	// Random page reads: ~71 MB/s over 3 replicas.
	if got := 3 * mb(p.PageGetOcc(storecommon.MB)); got < 64 || got > 80 {
		t.Errorf("page-wise read rate = %.1f MB/s, want ~71", got)
	}
	// Whole-blob block download: ~165 MB/s over 3 replicas (100 MB blob).
	occ := p.DownloadOcc(false, 100*storecommon.MB)
	if got := 3 * float64(100*storecommon.MB) / occ.Seconds() / float64(storecommon.MB); got < 155 || got > 185 {
		t.Errorf("whole-blob download rate = %.1f MB/s, want ~165", got)
	}
	// Page whole-blob download must be slower than block (paper Fig. 4).
	if p.DownloadOcc(true, 100*storecommon.MB) <= occ {
		t.Error("page whole-blob download should be slower than block")
	}
}

func TestQueueOccupancyMatchesScalabilityTarget(t *testing.T) {
	p := Default()
	// 2 ms occupancy <=> the documented 500 ops/s per-queue ceiling.
	occ := p.QueueOcc(QPut, 0, 0)
	perSec := float64(time.Second) / float64(occ)
	if perSec < 250 || perSec > 600 {
		t.Fatalf("queue server capacity = %.0f ops/s, want around the 500/s target", perSec)
	}
}

func TestQueueCostOrdering(t *testing.T) {
	p := Default()
	size := int64(32 * storecommon.KB)
	peek := p.QueueOcc(QPeek, size, 0) + p.QueueLat(QPeek, size)
	put := p.QueueOcc(QPut, size, 0) + p.QueueLat(QPut, size)
	get := p.QueueOcc(QGet, size, 0) + p.QueueLat(QGet, size) +
		p.QueueOcc(QDelete, size, 0) + p.QueueLat(QDelete, size)
	if !(peek < put && put < get) {
		t.Fatalf("cost ordering violated: peek=%v put=%v get+delete=%v", peek, put, get)
	}
}

func TestQuirk16KBGet(t *testing.T) {
	p := Default()
	lat16 := p.QueueLat(QGet, 16*storecommon.KB)
	lat8 := p.QueueLat(QGet, 8*storecommon.KB)
	lat32 := p.QueueLat(QGet, 32*storecommon.KB)
	if lat16 <= lat8 || lat16 <= lat32 {
		t.Fatalf("16KB anomaly absent: 8K=%v 16K=%v 32K=%v", lat8, lat16, lat32)
	}
	p.Quirk16KBGet = false
	if p.QueueLat(QGet, 16*storecommon.KB) != lat8 {
		t.Fatal("disabling the quirk did not flatten the anomaly")
	}
	// Puts and peeks are unaffected.
	if p2 := Default(); p2.QueueLat(QPut, 16*storecommon.KB) != p2.QueueLat(QPut, 8*storecommon.KB) {
		t.Fatal("quirk leaked into Put")
	}
}

func TestTableCostOrdering(t *testing.T) {
	p := Default()
	size := int64(16 * storecommon.KB)
	query := p.TableOcc(TQuery, size) + p.TableLat(TQuery)
	insert := p.TableOcc(TInsert, size) + p.TableLat(TInsert)
	update := p.TableOcc(TUpdate, size) + p.TableLat(TUpdate)
	del := p.TableOcc(TDelete, size) + p.TableLat(TDelete)
	// Paper Fig. 8: update is the most expensive, query the cheapest.
	if !(query < insert && insert < update) {
		t.Fatalf("ordering violated: query=%v insert=%v update=%v", query, insert, update)
	}
	if !(query < del && del < update) {
		t.Fatalf("delete out of band: query=%v delete=%v update=%v", query, del, update)
	}
}

func TestOccupancyGrowsWithSize(t *testing.T) {
	p := Default()
	for _, op := range []TableOp{TInsert, TQuery, TUpdate} {
		if p.TableOcc(op, 64*storecommon.KB) <= p.TableOcc(op, 4*storecommon.KB) {
			t.Errorf("table %v occupancy not size-dependent", op)
		}
	}
	for _, op := range []QueueOp{QPut, QPeek, QGet} {
		if p.QueueOcc(op, 64*storecommon.KB, 0) <= p.QueueOcc(op, 4*storecommon.KB, 0) {
			t.Errorf("queue %v occupancy not size-dependent", op)
		}
	}
}

func TestQueueScanCostGrowsWithResidentMessages(t *testing.T) {
	p := Default()
	if p.QueueOcc(QGet, 0, 20000) <= p.QueueOcc(QGet, 0, 0) {
		t.Fatal("resident-message scan cost missing")
	}
	if p.QueueOcc(QPut, 0, 20000) != p.QueueOcc(QPut, 0, 0) {
		t.Fatal("puts must not pay scan cost")
	}
}

func TestReplicationAblation(t *testing.T) {
	p := Default()
	base := p.BlockPutOcc(storecommon.MB)
	p.Replicas = 1
	if p.BlockPutOcc(storecommon.MB) >= base {
		t.Fatal("removing replicas did not cheapen writes")
	}
	// Reads never pay replication.
	q := Default()
	r := Default()
	r.Replicas = 1
	if q.BlockGetOcc(storecommon.MB) != r.BlockGetOcc(storecommon.MB) {
		t.Fatal("reads charged for replication")
	}
}

func TestXfer(t *testing.T) {
	if got := Xfer(storecommon.MB, Small.NICBps); got < 80*time.Millisecond || got > 90*time.Millisecond {
		t.Fatalf("1MB over Small NIC = %v, want ~84ms", got)
	}
	if Xfer(0, Small.NICBps) != 0 {
		t.Fatal("zero bytes should cost nothing")
	}
}
