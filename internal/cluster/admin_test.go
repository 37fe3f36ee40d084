package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pvfscache/internal/cachemod"
	"pvfscache/internal/pvfs"
)

// adminGet fetches one admin endpoint path and returns the body.
func adminGet(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return string(body)
}

// TestAdminScrapeE2E boots a live cluster with admin endpoints on real TCP
// sockets and scrapes it exactly as a Prometheus agent would: per-tenant
// series must appear with labels, /healthz must answer, and trace mode
// must capture a request end to end over HTTP. With METRICS_DUMP_DIR set
// the scraped text is written out as a CI artifact.
func TestAdminScrapeE2E(t *testing.T) {
	c, err := Start(Config{
		IODs:        2,
		ClientNodes: 1,
		Caching:     true,
		Module: cachemod.Config{
			FlushPeriod: time.Hour, // keep dirty residency visible at scrape time
		},
		AdminAddr: "127.0.0.1:0",
	})
	if err != nil {
		if strings.Contains(err.Error(), "admin endpoint") {
			t.Skipf("no TCP loopback available: %v", err)
		}
		t.Fatalf("start: %v", err)
	}
	defer c.Close()
	if len(c.AdminAddrs) != 1 || c.AdminAddrs[0] == "" {
		t.Fatalf("AdminAddrs = %v, want one bound address", c.AdminAddrs)
	}
	addr := c.AdminAddrs[0]

	// Generate tagged traffic so the per-tenant series exist.
	p, err := c.NewProcess(0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Create("qos/tagged.dat", pvfs.StripeSpec{}); err != nil {
		t.Fatal(err)
	}
	f, err := p.OpenWithTenant("qos/tagged.dat", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xBC}, 16<<10), 0); err != nil {
		t.Fatal(err)
	}

	if got := adminGet(t, addr, "/healthz"); !strings.Contains(got, "ok") {
		t.Fatalf("/healthz = %q", got)
	}

	body := adminGet(t, addr, "/metrics")
	for _, want := range []string{
		`module_tenant_dirty_blocks{node="0",tenant="2"}`,
		`module_dirty_blocks{node="0"}`,
		"module_writes_buffered",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q; got:\n%s", want, body)
		}
	}

	if dir := os.Getenv("METRICS_DUMP_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatalf("metrics dump dir: %v", err)
		}
		path := filepath.Join(dir, "node0-metrics.prom")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatalf("metrics dump: %v", err)
		}
		t.Logf("scraped metrics written to %s", path)
	}

	// Trace mode over HTTP: arm, run one request, drain.
	if got := adminGet(t, addr, "/trace?arm=2"); !strings.Contains(got, "armed 2") {
		t.Fatalf("/trace?arm=2 = %q", got)
	}
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	trace := adminGet(t, addr, "/trace")
	if !strings.Contains(trace, fmt.Sprintf("file=%d", f.ID())) {
		t.Errorf("trace output missing the traced request:\n%s", trace)
	}
	if !strings.Contains(trace, "done:") {
		t.Errorf("trace output missing completion hop:\n%s", trace)
	}
}
