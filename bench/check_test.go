package main

import (
	"strings"
	"testing"

	"azurebench/internal/payload"
	"azurebench/internal/sdk"
	"azurebench/internal/tablestore"
)

func generatedTable(seed int64) *liveTable {
	w := &liveTable{sz: smokeSizes(), seed: seed}
	w.generate()
	return w
}

func TestSameSeedSameStreams(t *testing.T) {
	a, b, c := generatedTable(7), generatedTable(7), generatedTable(8)
	if a.describe() != b.describe() {
		t.Errorf("seed 7 twice gave different table streams:\n%s\n%s", a.describe(), b.describe())
	}
	if a.describe() == c.describe() {
		t.Error("seeds 7 and 8 gave the same table streams")
	}
	if !payload.Equal(a.value(3, versionA), b.value(3, versionA)) || payload.Equal(a.value(3, versionA), c.value(3, versionA)) {
		t.Error("entity values do not follow the seed")
	}
	bag := func(seed int64) *liveBag {
		w := &liveBag{sz: smokeSizes(), seed: seed}
		w.generate()
		return w
	}
	if bag(7).describe() != bag(7).describe() || bag(7).describe() == bag(8).describe() {
		t.Error("task streams do not follow the seed")
	}
}

func TestZipfIsSkewedAndInRange(t *testing.T) {
	z := newZipf(newRNG(1, 1), 1000, 0.99)
	hits := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		hits[z.next()]++
	}
	if hits[0] < 5*hits[50] || hits[50] == 0 {
		t.Errorf("rank 0 drawn %d times, rank 50 %d times: not zipfian", hits[0], hits[50])
	}
}

func TestReadCheckRejectsCorruptedBody(t *testing.T) {
	w := generatedTable(1)
	read := func(k int, v payload.Payload) *tablestore.Entity {
		return &tablestore.Entity{PartitionKey: w.pk[k], RowKey: w.rk[k],
			Props: map[string]tablestore.Value{"Field0": tablestore.Binary(v)}}
	}
	if !w.validRead(read(5, w.value(5, versionA)), 5) || !w.validRead(read(5, w.value(5, versionB)), 5) {
		t.Error("a written version was rejected")
	}
	corrupt := w.value(5, versionA).Materialize()
	corrupt[len(corrupt)-1] ^= 1
	if w.validRead(read(5, payload.Bytes(corrupt)), 5) {
		t.Error("a body with one flipped bit was accepted")
	}
	if w.validRead(read(5, w.value(6, versionA)), 5) {
		t.Error("another key's value was accepted")
	}
	if w.validRead(read(6, w.value(5, versionA)), 5) {
		t.Error("an entity with the wrong key was accepted")
	}
	if w.validRead(nil, 5) {
		t.Error("a missing entity was accepted")
	}
}

func TestScanCheck(t *testing.T) {
	w := generatedTable(1)
	p := w.sz.partitions
	start := 3
	rows := func(idx ...int) sdk.QueryPage {
		var page sdk.QueryPage
		for _, i := range idx {
			page.Entities = append(page.Entities, &tablestore.Entity{PartitionKey: w.pk[i], RowKey: w.rk[i]})
		}
		return page
	}
	next := func(n int) []int {
		var idx []int
		for i := 0; i < n; i++ {
			idx = append(idx, start+i*p)
		}
		return idx
	}
	if msg := w.checkScan(rows(next(scanTop)...), start); msg != "" {
		t.Errorf("a correct scan was rejected: %s", msg)
	}
	for name, c := range map[string]struct {
		page  sdk.QueryPage
		start int
		want  string
	}{
		"unsorted":        {rows(start, start+p, start+p), start, "ascending"},
		"too many":        {rows(next(scanTop + 1)...), start, "more than"},
		"other partition": {rows(start, start+1), start, "partition"},
		"below start":     {rows(start, start+p), start + p, "below the start"},
		"skipped a key":   {rows(start, start+2*p), start, "next key"},
		"stopped early":   {rows(next(scanTop - 1)...), start, "keys left"},
	} {
		msg := w.checkScan(c.page, c.start)
		if msg == "" || !strings.Contains(msg, c.want) {
			t.Errorf("%s: checkScan = %q, want a complaint containing %q", name, msg, c.want)
		}
	}
	// A scan near the end of the key space legitimately returns fewer rows.
	last := w.sz.records - 1
	if msg := w.checkScan(rows(last), last); msg != "" {
		t.Errorf("a short scan at the end of the partition was rejected: %s", msg)
	}
}

func TestCompletionCheckFindsLostAndRepeatedTasks(t *testing.T) {
	done := [][]uint8{{1, 0, 1, 0}, {0, 0, 1, 1}}
	completed, bad := checkCompletions(done, 4)
	if completed != 2 {
		t.Errorf("completed = %d, want 2 (task 1 lost, task 2 done twice)", completed)
	}
	if len(bad) != 2 || !strings.Contains(bad[0], "task 1 completed 0 times") || !strings.Contains(bad[1], "task 2 completed 2 times") {
		t.Errorf("complaints = %q", bad)
	}
	if completed, bad := checkCompletions([][]uint8{{1, 0}, {0, 1}}, 2); completed != 2 || len(bad) != 0 {
		t.Errorf("a clean run was rejected: %d %q", completed, bad)
	}
}
