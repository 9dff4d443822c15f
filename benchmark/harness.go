package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/store"
	"repro/onex"
)

// datasetName is the name the dataset is registered under on the server.
const datasetName = "bench"

// liveServer is a handler served on a loopback TCP port — the analyst's
// path, socket included.
type liveServer struct {
	url  string
	srv  *http.Server
	done chan error
}

func startServer(h http.Handler) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ls := &liveServer{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h},
		done: make(chan error, 1),
	}
	go func() { ls.done <- ls.srv.Serve(ln) }()
	return ls, nil
}

// stop closes the listener and every connection and waits for Serve to
// return, so no server goroutine outlives the run.
func (ls *liveServer) stop() {
	_ = ls.srv.Close()
	<-ls.done
}

// client is one closed-loop caller on one keep-alive connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		base: base,
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// request is a prepared call: everything the client would have to compute
// is done before the clock starts.
type request struct {
	method  string
	path    string
	body    []byte
	noCache bool
	// id and parent tag the request for the trace middleware (traced runs).
	id, parent int
	traced     bool
}

func (c *client) newRequest(ctx context.Context, rq request) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, rq.method, c.base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return nil, err
	}
	if rq.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rq.noCache {
		req.Header.Set("Cache-Control", "no-cache")
	}
	if rq.traced {
		req.Header.Set(headerTraceID, strconv.Itoa(rq.id))
		req.Header.Set(headerTraceParent, strconv.Itoa(rq.parent))
	}
	return req, nil
}

// do sends rq and reads the whole response. The duration covers request
// sent to last body byte received.
func (c *client) do(ctx context.Context, rq request) (body []byte, status int, d time.Duration, err error) {
	req, err := c.newRequest(ctx, rq)
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	body, err = io.ReadAll(resp.Body)
	d = time.Since(start)
	resp.Body.Close()
	return body, resp.StatusCode, d, err
}

// stream sends a progressive query and reports the time to the first NDJSON
// update, then drains the stream so the connection is reusable. last is the
// terminating line.
func (c *client) stream(ctx context.Context, rq request) (first time.Duration, lines int, last []byte, status int, err error) {
	req, err := c.newRequest(ctx, rq)
	if err != nil {
		return 0, 0, nil, 0, err
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, 0, nil, 0, err
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) > 0 {
			if lines == 0 {
				first = time.Since(start)
			}
			lines++
			last = line
		}
		if rerr == io.EOF {
			return first, lines, last, resp.StatusCode, nil
		}
		if rerr != nil {
			return first, lines, last, resp.StatusCode, rerr
		}
	}
}

func queryPath(suffix string) string { return "/api/v1/datasets/" + datasetName + suffix }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only benchmark-built values are marshalled
	}
	return b
}

// leader is the system under test: the dataset opened with a file store,
// registered on a cache-enabled server that listens on loopback, and the
// query client's one connection to it.
type leader struct {
	db   *onex.DB
	srv  *server.Server
	live *liveServer
	cl   *client
}

// openLeader builds a leader with its store in dir. Auto-compaction is off,
// so the WAL keeps every ingest until the script compacts.
func openLeader(w workload, in inputs, dir string) (*leader, error) {
	eng, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	db, err := onex.Open(in.dataset, onex.Config{
		ST: w.st, MinLength: w.minLen, MaxLength: w.maxLen,
		Store: eng, CompactBytes: -1,
	})
	if err != nil {
		eng.Close()
		return nil, err
	}
	srv := server.New(server.WithCache(w.cacheBytes))
	srv.AddDB(datasetName, db)
	live, err := startServer(srv.Handler())
	if err != nil {
		db.Close()
		return nil, err
	}
	return &leader{db: db, srv: srv, live: live, cl: newClient(live.url)}, nil
}

// close stops the client, the server and the DB; nil-safe, so callers can
// defer it before the leader exists.
func (l *leader) close() {
	if l == nil {
		return
	}
	l.cl.close()
	l.live.stop()
	l.db.Close()
}

// copyDir copies the regular files of src into a fresh dst. Every WAL
// append is fsynced before it is acknowledged, so the copy holds exactly
// the bytes a process kill would have left on disk.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// scrape reads the counters the benchmark needs from the server's
// Prometheus text endpoint: unlabelled samples by name, labelled families
// summed under their family name.
func scrape(ctx context.Context, c *client) (map[string]float64, error) {
	body, status, _, err := c.do(ctx, request{method: http.MethodGet, path: "/metrics"})
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, nil
}
