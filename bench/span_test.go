package main

import "testing"

func TestSelfTimeIsParentMinusCoveredChildren(t *testing.T) {
	spans := []span{
		{Parent: -1, Layer: layerLoadgen, Start: 0, End: 100},  // 0
		{Parent: 0, Layer: layerSDK, Start: 10, End: 30},       // 1
		{Parent: 0, Layer: layerSDK, Start: 20, End: 50},       // 2 overlaps 1
		{Parent: 0, Layer: layerSDK, Start: 90, End: 120},      // 3 runs past its parent
		{Parent: 2, Layer: layerTransport, Start: 25, End: 45}, // 4 grandchild
	}
	want := []int64{
		100 - (50 - 10) - (100 - 90), // overlap counted once, overrun clipped
		20,
		30 - 20,
		30,
		20,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// In the shape the harness records (each span inside its parent, siblings
// not overlapping) the self times of one operation sum to its root span.
func TestSelfTimesSumToRoot(t *testing.T) {
	spans := []span{
		{Parent: -1, Layer: layerLoadgen, Start: 1000, End: 1900},
		{Parent: 0, Layer: layerSDK, Start: 1000, End: 1400},
		{Parent: 1, Layer: layerTransport, Start: 1050, End: 1350},
		{Parent: 2, Layer: layerREST, Start: 1100, End: 1200},
		{Parent: 0, Layer: layerSDK, Start: 1400, End: 1880},
		{Parent: 4, Layer: layerTransport, Start: 1420, End: 1800},
		{Parent: 5, Layer: layerREST, Start: 1500, End: 1700},
	}
	var sum int64
	for _, s := range selfTimes(spans) {
		sum += s
	}
	if sum != 900 {
		t.Errorf("self times sum to %d, root span is 900", sum)
	}
	lt := newLayerTotals()
	lt.add(spans, 0, len(spans))
	if lt.count[layerSDK] != 2 || lt.selfUS(layerREST) != us(300)/2 {
		t.Errorf("layer totals: %d sdk spans, rest self %v", lt.count[layerSDK], lt.selfUS(layerREST))
	}
}
