package onex

import (
	"context"
	"fmt"
	"os"
	"slices"
	"testing"

	"repro/internal/store"
)

// checkRadiusZeroBits requires every group of db to be classified by its
// stored bit (one member and RepIsFirst) exactly as the per-query
// predicate classified it before the bit existed: one member, equal value
// for value to the representative. A true bit must hold on groups of any
// size, which Validate also checks. It returns how many groups have radius
// zero, and fails when there is none: a base without one tests nothing.
func checkRadiusZeroBits(t *testing.T, step string, db *DB) int {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	if err := db.base.Validate(db.normed); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	zero := 0
	for _, l := range db.base.Lengths() {
		for gi, g := range db.base.GroupsOfLength(l) {
			bit := len(g.Members) == 1 && g.RepIsFirst
			oracle := len(g.Members) == 1 && slices.Equal(g.Members[0].Values(db.normed), g.Rep)
			if bit != oracle {
				t.Fatalf("%s: length %d group %d (%d members): bit says radius zero %v, the values say %v",
					step, l, gi, len(g.Members), bit, oracle)
			}
			if bit {
				zero++
			}
		}
	}
	if zero == 0 {
		t.Fatalf("%s: no radius-zero group", step)
	}
	return zero
}

// memberCounts is the member count of every group, by length.
func memberCounts(db *DB) map[int][]int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := map[int][]int{}
	for _, l := range db.base.Lengths() {
		for _, g := range db.base.GroupsOfLength(l) {
			out[l] = append(out[l], len(g.Members))
		}
	}
	return out
}

// sameExactWork requires got to answer exact queries with want's matches
// and the same work: a group whose bit was lost costs the exact walk a
// looser bound, which shows in the counts before it shows in an answer.
func sameExactWork(t *testing.T, step string, want, got *DB) {
	t.Helper()
	q, err := want.SeriesValues("MA")
	if err != nil {
		t.Fatal(err)
	}
	for i, query := range []Query{
		{Values: q[0:8], K: 5, Mode: ModeExact},
		{Values: q[3:9], K: 1, Mode: ModeExact},
		{Window: Window{Series: "fresh", Start: 1, Length: 7}, Exclude: Exclude{Self: true}, K: 3, Mode: ModeExact},
	} {
		w, err := want.Find(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		g, err := got.Find(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%s: exact query %d", step, i)
		if len(w.Matches) != len(g.Matches) {
			t.Fatalf("%s: %d matches != %d", label, len(g.Matches), len(w.Matches))
		}
		for j := range w.Matches {
			sameMatch(t, fmt.Sprintf("%s match %d", label, j), w.Matches[j], g.Matches[j])
		}
		ws, gs := w.Stats, g.Stats
		ws.WallMicros, gs.WallMicros = 0, 0
		if ws != gs {
			t.Fatalf("%s: stats %+v, live %+v", label, gs, ws)
		}
	}
}

// TestRadiusZeroBitMatchesPredicate walks every path that writes or loads
// a group — Build, AddSeries, a rolled-back append, compaction, a warm
// reopen with WAL replay, an mmap open and a follower's apply — and after
// each requires the stored radius-zero bit to agree with the values
// (checkRadiusZeroBits), with and without normalization (KeepRaw shares
// the mapped values with the engine, so the mmap open reads them pinned).
// Reopened DBs must also do the live DB's exact-query work.
//
// The singletons these paths write all equal their representative: Build's
// repair never thins a group below two members, because the last two
// members to join are within ST/2 of the final centroid by the triangle
// inequality. The false side of the bit on a singleton is covered in
// grouping (TestRepIsFirst).
func TestRadiusZeroBitMatchesPredicate(t *testing.T) {
	fresh := []float64{120, 110, 100, 90, 80, 90, 100, 110, 120, 110, 100, 90}
	echo := make([]float64, len(fresh)) // joins fresh's groups
	tail := make([]float64, len(fresh)) // seeds groups of its own
	for i, v := range fresh {
		echo[i] = v + 0.001
		tail[i] = -v
	}
	for _, keepRaw := range []bool{false, true} {
		t.Run(fmt.Sprintf("keepRaw=%v", keepRaw), func(t *testing.T) {
			dir := t.TempDir()
			eng, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			wal := &failingEngine{Engine: eng, pass: true}
			live, err := Open(smallMatters(t), Config{MinLength: 4, MaxLength: 10, KeepRaw: keepRaw, Store: wal, CompactBytes: -1})
			if err != nil {
				eng.Close()
				t.Fatal(err)
			}
			defer live.Close()
			checkRadiusZeroBits(t, "Open", live)

			if err := live.AddSeries("fresh", fresh); err != nil {
				t.Fatal(err)
			}
			checkRadiusZeroBits(t, "AddSeries", live)

			before := memberCounts(live)
			wal.pass = false
			if err := live.AddSeries("echo", echo); err == nil {
				t.Fatal("AddSeries with a failing WAL succeeded")
			}
			wal.pass = true
			zero := checkRadiusZeroBits(t, "rolled-back append", live)
			after := memberCounts(live)
			for l, counts := range before {
				if !slices.Equal(counts, after[l]) {
					t.Fatalf("rollback changed the groups of length %d", l)
				}
			}
			// The same insert, kept this time, joins fresh's singletons: the
			// rolled-back one had grown them and shrunk them back.
			if err := live.AddSeries("echo", echo); err != nil {
				t.Fatal(err)
			}
			if grown := zero - checkRadiusZeroBits(t, "AddSeries joining singletons", live); grown <= 0 {
				t.Fatal("echo joined no singleton: the rollback step tests nothing")
			}

			if err := live.Snapshot(); err != nil {
				t.Fatal(err)
			}
			checkRadiusZeroBits(t, "compaction", live)
			snapVersion := live.Version()
			if err := live.AddSeries("tail", tail); err != nil { // replayed from the WAL
				t.Fatal(err)
			}
			checkRadiusZeroBits(t, "AddSeries after compaction", live)

			for _, mmap := range []bool{false, true} {
				step := fmt.Sprintf("OpenStore (mmap %v)", mmap)
				warm, err := OpenStore(dir, Config{MmapValues: mmap})
				if err != nil {
					t.Fatal(err)
				}
				if mmap && keepRaw && warm.normed.Source == nil {
					t.Fatal("KeepRaw mmap open materialized the engine's values")
				}
				checkRadiusZeroBits(t, step, warm)
				sameExactWork(t, step, live, warm)
				warm.Close()
			}

			blob, err := os.ReadFile(store.SnapshotPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			follower, err := OpenReplica(blob, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer follower.Close()
			checkRadiusZeroBits(t, "OpenReplica", follower)
			if err := follower.ApplyReplicated(snapVersion+1, "tail", tail); err != nil {
				t.Fatal(err)
			}
			checkRadiusZeroBits(t, "follower apply", follower)
			sameExactWork(t, "follower apply", live, follower)
		})
	}
}
