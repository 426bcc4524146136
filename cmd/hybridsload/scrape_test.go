package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hybrids/internal/admin"
	"hybrids/internal/core"
	"hybrids/internal/dsim/kv"
	"hybrids/internal/server"
	"hybrids/internal/ycsb"
)

// scrapeHarness is an in-process hybridsd: a server on a loopback
// listener and its admin plane behind an httptest server.
type scrapeHarness struct {
	srv  *server.Server
	addr string
	adm  http.Handler
}

func newScrapeHarness(t *testing.T) *scrapeHarness {
	t.Helper()
	h := core.New(core.Config{Partitions: 2, KeyMax: 1 << 12})
	srv := server.New(h, server.Config{Window: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		h.Close()
	})
	return &scrapeHarness{srv: srv, addr: ln.Addr().String(), adm: admin.New(admin.Config{Server: srv, Hybrid: h}).Handler()}
}

// waitOpen blocks until the server holds at most n open connections.
func (sh *scrapeHarness) waitOpen(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); len(sh.srv.ConnsInfo()) > n; {
		if time.Now().After(deadline) {
			t.Errorf("server still holds %d connections, want <= %d", len(sh.srv.ConnsInfo()), n)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// dialStale opens a connection that stands for the preload's and waits
// until the server has registered it.
func (sh *scrapeHarness) dialStale(t *testing.T) *server.Client {
	t.Helper()
	c, err := server.Dial(sh.addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	return c
}

func scrapeWorkload(t *testing.T) (workloadSpec, loadFlags, [][]kv.Op) {
	t.Helper()
	specs, err := parseWorkloads("c", 512, 1<<12, 100, 0, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	lf := loadFlags{conns: 2, depth: 4, ops: 200, warmup: 16}
	return specs[0], lf, ycsb.New(specs[0].cfg).Streams(lf.conns, lf.warmup+lf.ops)
}

// An earlier connection still closing on the server when the measured
// phase starts must not land in the scrape window. The admin plane below
// makes that close certain to fall between the scrapes unless hybridsload
// waits for it: on the first request it serves, it closes the stale
// connection and answers only once the server has retired it. The second
// /metrics.json waits until the workload's own connections have closed,
// so the window's server/conns_closed is exactly the workload's -conns.
func TestScrapeWindowExcludesEarlierConns(t *testing.T) {
	sh := newScrapeHarness(t)
	stale := sh.dialStale(t)
	spec, lf, streams := scrapeWorkload(t)

	var mu sync.Mutex
	requests, metricsScrapes := 0, 0
	web := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if r.URL.Path == "/metrics.json" {
			if metricsScrapes++; metricsScrapes == 2 {
				sh.waitOpen(t, 0)
			}
		}
		rec := httptest.NewRecorder()
		sh.adm.ServeHTTP(rec, r)
		if requests++; requests == 1 {
			stale.Close()
			sh.waitOpen(t, lf.conns)
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer web.Close()

	lf.addr, lf.scrape = sh.addr, web.URL
	r, err := runWorkload(lf, spec, streams)
	if err != nil {
		t.Fatal(err)
	}
	if r.scrapeDropped {
		t.Fatal("server counters regressed between the scrapes")
	}
	if got := r.cell.Metrics["server/conns_accepted"]; got != 0 {
		t.Errorf("server/conns_accepted = %d in the measured window, want 0", got)
	}
	if got := r.cell.Metrics["server/conns_closed"]; got != uint64(lf.conns) {
		t.Errorf("server/conns_closed = %d in the measured window, want the workload's own %d", got, lf.conns)
	}
}

// A connection that never closes bounds the wait: awaitConns fails with
// an error that names the open-connection count instead of hanging.
func TestAwaitConnsTimesOut(t *testing.T) {
	sh := newScrapeHarness(t)
	for i := 0; i < 3; i++ {
		defer sh.dialStale(t).Close()
	}
	web := httptest.NewServer(sh.adm)
	defer web.Close()

	if err := awaitConns(web.URL, 3, time.Millisecond); err != nil {
		t.Fatalf("awaitConns with 3 open, want 3: %v", err)
	}
	err := awaitConns(web.URL, 2, 50*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "3 connections still open") {
		t.Fatalf("awaitConns error = %v, want a bounded wait failure naming 3 open connections", err)
	}
}
