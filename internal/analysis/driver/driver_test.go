package driver

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestUsageOnNoArgs(t *testing.T) {
	var errBuf bytes.Buffer
	if code := Main(nil, io.Discard, &errBuf); code != 2 {
		t.Fatalf("no args exited %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "usage") {
		t.Fatalf("no usage message: %q", errBuf.String())
	}
}
