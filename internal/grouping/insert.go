package grouping

import (
	"fmt"

	"repro/internal/ts"
)

// AddSeries incrementally indexes every window of one series into an
// existing base, without rebuilding. The series must already be present in
// d (typically just appended); its windows join the nearest existing group
// whose frozen representative is within the ST*l/2 radius, or seed new
// singleton groups. Representatives never move during an insert, so the
// §3.1 invariant is preserved exactly for old and new members alike.
//
// An insert costs work proportional to the new series, not to the dataset:
// each window is matched through the per-length repIndex (assign.go), and
// DatasetSum is extended with the new series' bytes only, so afterwards
// b.DatasetSum == DatasetChecksum(d) without re-hashing d. An engine bound
// to the same d and b stays valid across the insert and sees the new
// members. AddSeries is not safe to run concurrently with queries on the
// same base.
func (b *Base) AddSeries(d *ts.Dataset, si int) error {
	if si < 0 || si >= d.Len() {
		return fmt.Errorf("grouping: AddSeries: series index %d out of range", si)
	}
	// The insert compares the new series' windows against existing group
	// representatives; pin mmap-backed storage across it (no-op for heap
	// datasets).
	release, err := d.Pin()
	if err != nil {
		return fmt.Errorf("grouping: AddSeries: %w", err)
	}
	defer release()
	s := d.Series[si]
	// Reject double-insertion: the caller is misusing the API. The indexed
	// set makes this O(1) per call instead of a scan over every member of
	// every group (O(total subsequences) per streamed series).
	if b.indexed[si] {
		return fmt.Errorf("grouping: AddSeries: series %d already indexed", si)
	}
	added := 0
	for l := b.MinLength; l <= b.MaxLength && l <= s.Len(); l++ {
		lg := b.ByLength[l]
		if lg == nil {
			lg = &LengthGroups{Length: l}
			b.ByLength[l] = lg
		}
		ix := b.repIndexFor(lg)
		for start := 0; start+l <= s.Len(); start++ {
			w := s.Values[start : start+l]
			ref := ts.SubSeq{Series: si, Start: start, Length: l}
			if best, _ := ix.nearest(w, lg.Groups); best >= 0 {
				g := lg.Groups[best]
				g.Members = append(g.Members, ref)
			} else {
				rep := make([]float64, l)
				copy(rep, w)
				lg.Append(&Group{Length: l, Rep: rep, Members: []ts.SubSeq{ref}, RepIsFirst: true})
				ix.add(rep)
			}
			added++
		}
	}
	if added > 0 {
		// Series too short to contribute stay unmarked, so re-streaming one
		// remains an accepted no-op (matching the old member-scan check and
		// a base reloaded from disk).
		if b.indexed == nil {
			b.indexed = make(map[int]bool)
		}
		b.indexed[si] = true
	}
	b.BuildStats.NumWindows += added
	b.BuildStats.NumGroups = b.NumGroups()
	b.extendDatasetSum(d)
	return nil
}

// repIndexFor returns the search index over lg's representatives, building
// it on first use: the index is derived state — Build discards its own,
// Read and RemoveSeries leave none — so the first insert into a length pays
// one pass over that length's representatives and later ones none.
func (b *Base) repIndexFor(lg *LengthGroups) *repIndex {
	if ix := b.repIndex[lg.Length]; ix != nil {
		return ix
	}
	ix := newRepIndex(b.HalfST(lg.Length), lg.Groups)
	if b.repIndex == nil {
		b.repIndex = make(map[int]*repIndex)
	}
	b.repIndex[lg.Length] = ix
	return ix
}

// extendDatasetSum brings DatasetSum up to date with d by hashing only the
// series of d it does not cover yet. DatasetSum is the FNV-1a running state
// after d's first b.hashed series, and series are only ever appended, so
// continuing from it equals DatasetChecksum(d). A base that has not been
// tied to an in-memory dataset yet (loaded by Read) hashes d in full, once.
func (b *Base) extendDatasetSum(d *ts.Dataset) {
	if b.hashed == 0 {
		b.DatasetSum, b.hashed = DatasetChecksum(d), d.Len()
		return
	}
	for ; b.hashed < d.Len(); b.hashed++ {
		b.DatasetSum = checksumSeries(b.DatasetSum, d.Series[b.hashed])
	}
}

// RemoveSeries is AddSeries' inverse for ingest rollback. It is only sound
// for the most recently added series: member references hold series
// indices, and since AddSeries only appends, that series' members are a
// suffix of every group's Members and the groups it seeded are a suffix of
// every length's Groups. RemoveSeries truncates both suffixes (and Ends
// with Groups), deletes
// lengths left with no groups, and re-hashes d (which must already have
// the series removed) to restore the pre-insert checksum. Representatives
// never move during an insert, so the result is the pre-insert base bit
// for bit, group positions included. Rollback is the rare path, so it
// discards the search index (rebuilt by the next insert).
func (b *Base) RemoveSeries(d *ts.Dataset, si int) {
	removed := 0
	for l, lg := range b.ByLength {
		for _, g := range lg.Groups {
			n := len(g.Members)
			for n > 0 && g.Members[n-1].Series == si {
				n--
			}
			removed += len(g.Members) - n
			g.Members = g.Members[:n]
		}
		n := len(lg.Groups)
		for n > 0 && len(lg.Groups[n-1].Members) == 0 {
			n--
		}
		if n == 0 {
			delete(b.ByLength, l)
			continue
		}
		clear(lg.Groups[n:])
		lg.Groups, lg.Ends = lg.Groups[:n], lg.Ends[:2*n]
	}
	delete(b.indexed, si)
	b.repIndex = nil
	b.BuildStats.NumWindows -= removed
	b.BuildStats.NumGroups = b.NumGroups()
	b.DatasetSum, b.hashed = DatasetChecksum(d), d.Len()
}

// reindexSeries rebuilds the indexed-series set from the stored membership
// (used after deserialization, where only members are persisted). The set
// always equals "series with at least one member" — Build and AddSeries
// maintain the same invariant — so a reloaded base behaves identically to
// a fresh one.
func (b *Base) reindexSeries() {
	b.indexed = make(map[int]bool)
	for _, lg := range b.ByLength {
		for _, g := range lg.Groups {
			for _, m := range g.Members {
				b.indexed[m.Series] = true
			}
		}
	}
}
