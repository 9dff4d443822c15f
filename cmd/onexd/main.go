// Command onexd serves the ONEX HTTP API and demo page (paper §4's
// client-server architecture).
//
// Usage:
//
//	onexd -addr :8080
//	onexd -addr :8080 -preload growth=matters:GrowthRate,power=electricity
//	onexd -addr :8080 -data-dir /srv/onex/data
//
// Preloaded sources accept the same syntax as POST /api/v1/datasets/load:
// "matters:<Indicator>", "electricity", "cbf", "walks", "file:<path>".
// GET /healthz answers liveness probes (build info + loaded-dataset
// count) for load balancers in front of the daemon, and
// POST /api/v1/datasets/{name}/query/stream serves progressive queries
// as NDJSON (the stream handler re-arms the write deadline per update,
// so the server's WriteTimeout below bounds per-update stalls, not total
// stream duration).
// -data-dir restricts the load endpoint's file: sources to one directory;
// without it any server-readable path may be loaded (the historical demo
// behaviour, fine when operator == analyst). Every query, stream and
// analysis runs on its request's goroutine, so concurrent clients share the
// cores and -max-inflight bounds the total.
//
// The serving tier for heavy traffic is opt-in per knob:
//
//	onexd -cache-bytes 67108864          # 64 MiB versioned result cache
//	onexd -rate-limit 50 -rate-burst 100 # per-client token bucket (429 + Retry-After)
//	onexd -max-inflight 8 -inflight-queue 32  # admission control (503 + Retry-After)
//
// -cache-bytes enables the result cache for /query and /analyze, keyed by
// (dataset, DB instance ID, dataset version, canonical request) so both
// ingests and dataset reloads invalidate by construction.
// -rate-limit/-rate-burst and -max-inflight/-inflight-queue shed excess
// query-class traffic before it reaches the engine; rate limiting keys
// clients by remote IP unless -trust-proxy asserts that a fronting proxy
// sets X-Forwarded-For (never pass it when clients connect directly —
// the header is client-forgeable). GET /metrics exports request counters,
// latency histograms, cache hit/miss/eviction counts, the inflight gauge,
// and rejection counts in Prometheus text format regardless of which
// knobs are on.
//
// Persistence is opt-in with -store:
//
//	onexd -store /srv/onex/store -preload growth=matters:GrowthRate
//	onexd -store /srv/onex/store -fsync-every 32
//
// Every dataset then lives under /srv/onex/store/<name> as a CRC-checksummed
// snapshot plus a write-ahead log: loads snapshot immediately, ingests are
// fsynced to the WAL before they are acknowledged, and startup warm-restores
// everything persisted (preloads whose name was restored skip their rebuild —
// the store copy, ingests included, wins). Graceful shutdown folds each WAL
// into a fresh snapshot so the next start replays nothing. GET /healthz
// gains a per-dataset persistence block and GET /metrics the onex_store_*
// families when -store is active. -fsync-every N turns on WAL group commit:
// one fsync per N ingests instead of per ingest, trading up to N-1 of the
// most recently acknowledged ingests on a crash (always a clean suffix) for
// ingest throughput.
//
// Replication turns a second onexd into a serving read replica:
//
//	onexd -addr :8081 -follow http://leader:8080
//
// The follower enumerates the leader's datasets, ships each one's snapshot,
// and tails its WAL over /replication/v1, serving every read endpoint from
// the replicated copies while rejecting writes with 503 plus an
// X-Onex-Leader header naming the leader. GET /healthz gains a per-dataset
// replication block (applied/leader seq, lag, reconnects) and GET /metrics
// the onex_replica_* families. -follow excludes -store and -preload: a
// replica's state is the leader's, shipped, not built or persisted locally.
//
// -mmap serves datasets beyond RAM. With -store, warm restores map each
// snapshot read-only and serve series values as zero-copy views that page
// in on demand instead of decoding them onto the heap; with -follow,
// shipped snapshots are spooled to disk and mapped the same way. GET
// /healthz reports each mapped dataset's mapped and resident bytes and
// GET /metrics grows the onex_mmap_* families. Datasets loaded cold (via
// -preload or POST /datasets/load) still build in memory; they serve
// mapped after the next restart's warm restore.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/store"
	"repro/onex"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	preload := flag.String("preload", "", "comma-separated name=source pairs to load at startup")
	dataDir := flag.String("data-dir", "", "restrict file: load sources to this directory (default: unrestricted)")
	cacheBytes := flag.Int64("cache-bytes", 0, "result-cache byte budget for query/analyze responses (0 = caching off)")
	rateLimit := flag.Float64("rate-limit", 0, "per-client query-class requests per second (0 = rate limiting off)")
	rateBurst := flag.Int("rate-burst", 0, "per-client token-bucket burst (default: ceil of -rate-limit)")
	trustProxy := flag.Bool("trust-proxy", false, "rate-limit on the first X-Forwarded-For hop (only behind a proxy that strips client-supplied values)")
	maxInflight := flag.Int("max-inflight", 0, "concurrent query-class execution slots (0 = admission control off)")
	inflightQueue := flag.Int("inflight-queue", 0, "requests allowed to wait for a slot before 503 (with -max-inflight)")
	storeDir := flag.String("store", "", "persist datasets under this directory (snapshot + WAL per dataset; warm-restores at startup)")
	fsyncEvery := flag.Int("fsync-every", 1, "with -store: fsync the WAL once per N ingests (group commit; N>1 risks the last N-1 acked ingests on a crash)")
	follow := flag.String("follow", "", "run as a serving read replica of the leader at this base URL (excludes -store and -preload)")
	mmap := flag.Bool("mmap", false, "serve dataset values as zero-copy views over memory-mapped snapshots (with -store: warm restores; with -follow: shipped snapshots are spooled to disk and mapped)")
	flag.Parse()

	if *follow != "" && (*storeDir != "" || *preload != "") {
		log.Fatal("onexd: -follow excludes -store and -preload (a replica's state is shipped from the leader)")
	}
	if *mmap && *storeDir == "" && *follow == "" {
		log.Fatal("onexd: -mmap needs a snapshot to map; pair it with -store (warm restores) or -follow (spooled bootstrap snapshots)")
	}

	var opts []server.Option
	if *storeDir != "" {
		opts = append(opts, server.WithStore(*storeDir))
		if *mmap {
			opts = append(opts, server.WithMmap())
		}
	}
	if *dataDir != "" {
		opts = append(opts, server.WithDataDir(*dataDir))
	}
	if *cacheBytes > 0 {
		opts = append(opts, server.WithCache(*cacheBytes))
	}
	if *rateLimit > 0 {
		burst := *rateBurst
		if burst <= 0 {
			burst = int(math.Ceil(*rateLimit))
		}
		opts = append(opts, server.WithRateLimit(*rateLimit, burst))
	}
	if *trustProxy {
		opts = append(opts, server.WithTrustedProxy())
	}
	if *maxInflight > 0 {
		opts = append(opts, server.WithMaxInflight(*maxInflight, *inflightQueue))
	}
	if *fsyncEvery > 1 {
		opts = append(opts, server.WithFsyncEvery(*fsyncEvery))
	}

	// Follower mode: enumerate the leader's datasets, then run one
	// replication loop per dataset. OnDB swaps each freshly bootstrapped
	// replica into the serving map, so reads always hit a complete DB —
	// first at initial-snapshot time, again after every compaction fence.
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var srv *server.Server
	var followers map[string]*replica.Follower
	if *follow != "" {
		names, err := leaderDatasets(*follow)
		if err != nil {
			log.Fatalf("onexd: -follow %s: %v", *follow, err)
		}
		if len(names) == 0 {
			log.Printf("onexd: leader %s has no datasets; serving empty (restart the follower after loading the leader)", *follow)
		}
		opts = append(opts, server.WithLeader(*follow))
		spoolDir := ""
		if *mmap {
			// Shipped snapshots are spooled here and mapped instead of
			// being decoded onto the heap; the directory lives for the
			// process (mappings reference its files).
			spoolDir, err = os.MkdirTemp("", "onexd-replica-spool-")
			if err != nil {
				log.Fatalf("onexd: -mmap spool dir: %v", err)
			}
			defer os.RemoveAll(spoolDir)
		}
		followers = make(map[string]*replica.Follower, len(names))
		for _, name := range names {
			followers[name] = replica.New(*follow, name, replica.Options{
				SpoolDir: spoolDir,
				Logf:     log.Printf,
				OnDB:     func(db *onex.DB) { srv.AddDB(name, db) },
			})
		}
		opts = append(opts, server.WithReplicaStatus(func() map[string]replica.Status {
			out := make(map[string]replica.Status, len(followers))
			for n, f := range followers {
				out[n] = f.Status()
			}
			return out
		}))
	}
	srv = server.New(opts...)
	for name, f := range followers {
		go func() {
			if err := f.Run(ctx); err != nil && ctx.Err() == nil {
				log.Printf("onexd: follower %s stopped: %v", name, err)
			}
		}()
	}
	warm := make(map[string]bool)
	if *storeDir != "" {
		restored, err := srv.RestoreStored()
		if err != nil {
			log.Fatalf("onexd: restore from %s: %v", *storeDir, err)
		}
		for _, name := range restored {
			warm[name] = true
			log.Printf("restored %s from store (warm open, no rebuild)", name)
		}
	}
	if *preload != "" {
		for _, pair := range strings.Split(*preload, ",") {
			name, source, ok := strings.Cut(pair, "=")
			if !ok {
				log.Fatalf("onexd: bad -preload entry %q (want name=source)", pair)
			}
			if warm[name] {
				// The store already holds this dataset, ingests included;
				// rebuilding from the source would discard them.
				log.Printf("preload %s: already restored from store, skipping rebuild", name)
				continue
			}
			var eng *store.FileStore
			if *storeDir != "" {
				var err error
				if eng, err = store.Open(filepath.Join(*storeDir, name)); err != nil {
					log.Fatalf("onexd: preload %s: store: %v", name, err)
				}
			}
			db, err := openSource(source, eng, *fsyncEvery)
			if err != nil {
				log.Fatalf("onexd: preload %s: %v", name, err)
			}
			srv.AddDB(name, db)
			st := db.Stats()
			log.Printf("loaded %s from %s: %d series, %d subsequences, %d groups (%.1fx compaction)",
				name, source, st.Series, st.Subsequences, st.Groups, st.CompactionRatio)
		}
	}
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      120 * time.Second, // preprocessing large loads takes time
		IdleTimeout:       60 * time.Second,
	}
	// Graceful shutdown on SIGINT/SIGTERM: in-flight queries finish.
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("onexd shutting down")
		stop() // wind down follower replication loops
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpServer.Shutdown(sctx)
	}()
	log.Printf("onexd listening on %s", *addr)
	if err := httpServer.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	if *storeDir != "" {
		// Graceful shutdown: fold every WAL into a fresh snapshot so the
		// next start is a pure warm open with nothing to replay.
		if err := srv.PersistAll(); err != nil {
			log.Printf("onexd: shutdown snapshot: %v", err)
		}
		srv.CloseStores()
	}
}

// leaderDatasets enumerates the datasets served by the leader, retrying
// briefly so a follower started alongside its leader (compose files, CI)
// wins the startup race instead of dying on the first connection refusal.
func leaderDatasets(base string) ([]string, error) {
	base = strings.TrimRight(base, "/")
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		if attempt > 0 {
			time.Sleep(500 * time.Millisecond)
		}
		resp, err := http.Get(base + "/api/v1/datasets")
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			lastErr = fmt.Errorf("leader answered %s", resp.Status)
			continue
		}
		var infos []struct {
			Name string `json:"name"`
		}
		err = json.NewDecoder(resp.Body).Decode(&infos)
		resp.Body.Close()
		if err != nil {
			lastErr = fmt.Errorf("dataset listing: %w", err)
			continue
		}
		names := make([]string, 0, len(infos))
		for _, info := range infos {
			names = append(names, info.Name)
		}
		return names, nil
	}
	return nil, fmt.Errorf("leader unreachable: %w", lastErr)
}

// openSource mirrors the server's load endpoint for startup preloads,
// keeping defaults suitable for interactive demo sizes. A non-nil engine
// makes the dataset durable (Open writes the initial snapshot).
func openSource(source string, eng *store.FileStore, fsyncEvery int) (*onex.DB, error) {
	ds, err := server.DatasetForSource(source)
	if err != nil {
		return nil, err
	}
	maxLen := ds.MaxLen()
	if maxLen > 48 {
		maxLen = 48 // keep preload preprocessing interactive
	}
	cfg := onex.Config{MaxLength: maxLen, FsyncEvery: fsyncEvery}
	if eng != nil {
		cfg.Store = eng
	}
	db, err := onex.Open(ds, cfg)
	if err != nil {
		if eng != nil {
			eng.Close()
		}
		return nil, fmt.Errorf("preprocess: %w", err)
	}
	return db, nil
}
