package sdk

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"azurebench/internal/rest"
)

func TestGetServiceStatsUnavailable(t *testing.T) {
	c, _ := newStack(t, rest.Options{})
	st, err := c.GetServiceStats()
	if err != nil {
		t.Fatalf("GetServiceStats: %v", err)
	}
	if st.Status != "unavailable" {
		t.Errorf("status = %q, want unavailable", st.Status)
	}
	if !st.LastSyncTime.IsZero() {
		t.Errorf("LastSyncTime = %v, want zero", st.LastSyncTime)
	}
}

// TestGetServiceStatsLiveRoundTrip reads the secondary endpoint of an
// RA-GRS account, which the emulator does not have: the body is the
// service's own Get Service Stats example.
func TestGetServiceStatsLiveRoundTrip(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/stats" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/xml")
		w.Write([]byte(`<?xml version="1.0" encoding="utf-8"?><StorageServiceStats><GeoReplication>` +
			`<Status>live</Status><LastSyncTime>Wed, 19 Jan 2011 22:28:43 GMT</LastSyncTime>` +
			`</GeoReplication></StorageServiceStats>`))
	}))
	t.Cleanup(hs.Close)
	c := New(hs.URL, hs.Client(), paperPolicy(3, 10*time.Millisecond))
	st, err := c.GetServiceStats()
	if err != nil {
		t.Fatalf("GetServiceStats: %v", err)
	}
	if st.Status != "live" {
		t.Errorf("status = %q, want live", st.Status)
	}
	if sync := time.Date(2011, time.January, 19, 22, 28, 43, 0, time.UTC); !st.LastSyncTime.Equal(sync) {
		t.Errorf("LastSyncTime = %v, want %v", st.LastSyncTime, sync)
	}
}
