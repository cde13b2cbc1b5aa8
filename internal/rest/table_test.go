package rest

import (
	"sync"
	"testing"

	"azurebench/internal/odata"
	"azurebench/internal/tablestore"
)

// TestGetEncodesWhileReplacesStore: two goroutines GET one entity, which
// the handler encodes after the store's lock is released, while two others
// Replace it. Under -race (make race-live) this checks that nothing a GET
// reads is written by a later Replace; every body must decode to one of the
// versions written.
func TestGetEncodesWhileReplacesStore(t *testing.T) {
	srv := NewServer(Options{})
	if err := srv.Table.CreateTable("bench"); err != nil {
		t.Fatal(err)
	}
	version := func(n int64) *tablestore.Entity {
		return &tablestore.Entity{PartitionKey: "p", RowKey: "r",
			Props: map[string]tablestore.Value{"N": tablestore.Int64(n), "Pad": tablestore.String("0123456789")}}
	}
	if _, err := srv.Table.Insert("bench", version(0)); err != nil {
		t.Fatal(err)
	}
	const path = "/table/bench(PartitionKey='p',RowKey='r')"
	const rounds = 300
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= rounds; i++ {
				if g >= 2 {
					body, err := odata.EncodeEntity(version(i))
					if err != nil {
						t.Error(err)
						return
					}
					serve(t, srv, "PUT", path, body, "If-Match", "*")
					continue
				}
				e, err := odata.DecodeEntity(serve(t, srv, "GET", path, nil).Body.Bytes())
				if err != nil {
					t.Error(err)
					return
				}
				if n := e.Props["N"].I; n < 0 || n > rounds || e.Props["Pad"].S != "0123456789" || e.ETag == "" {
					t.Errorf("GET returned %+v, not a version written", e)
					return
				}
			}
		}()
	}
	wg.Wait()
}
