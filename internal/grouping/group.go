// Package grouping implements the ONEX base: the offline half of the ONEX
// contribution. All subsequences of a dataset within a configurable length
// range are clustered, per length, into "ONEX similarity groups" using the
// inexpensive Euclidean (L1) distance. Each group is summarized by a
// representative (the centroid of its members), and construction maintains
// the paper's §3.1 invariant:
//
//   - every member is within ST/2 of its group representative, hence
//   - any two members of a group are within ST of each other (ED is a
//     metric).
//
// Because the centroid drifts while members stream in, the invariant can be
// violated for early members; Build therefore finishes with a repair pass
// that freezes representatives and re-homes (or re-seeds) any member that
// drifted out, so the invariant holds exactly for the final base. The
// online half (internal/core) explores this compact base with DTW instead
// of the raw data.
package grouping

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/ts"
)

// Group is one ONEX similarity group: same-length subsequences that are
// mutually within the similarity threshold, summarized by a representative.
type Group struct {
	// Length is the length of every member and of Rep.
	Length int
	// Rep is the group representative: the member centroid at build time,
	// frozen by the repair pass (see package comment).
	Rep []float64
	// Members references every subsequence assigned to this group. Members
	// never overlap-deduplicate: each window of the dataset appears in
	// exactly one group of its length.
	Members []ts.SubSeq
	// RepIsFirst records that Members[0] equals Rep value for value, so a
	// group with one member has radius zero: any bound on the
	// representative's score bounds the member's (the exact walk's
	// radius-zero rule). Members are append-only and rollback truncates a
	// suffix, so Members[0] never changes once the group is written, and the
	// bit is decided there: Build evaluates it for every finished singleton,
	// groups seeded with a copy of their window (repair's reseeds,
	// AddSeries' new groups) start with it set, and DeriveRepIsFirst
	// restores it on a base read from disk, whose format does not carry it.
	// No write path clears it. False is always sound; it only costs the
	// exact walk a looser bound.
	RepIsFirst bool
}

// Count returns the group cardinality. The overview pane color-codes by it.
func (g *Group) Count() int { return len(g.Members) }

// MaxRadius returns the largest ED between a member and the representative;
// at most ST/2 for a repaired base.
func (g *Group) MaxRadius(d *ts.Dataset) float64 {
	maxR := 0.0
	for _, m := range g.Members {
		if r := dist.ED(m.Values(d), g.Rep); r > maxR {
			maxR = r
		}
	}
	return maxR
}

// LengthGroups holds every group of one subsequence length.
type LengthGroups struct {
	Length int
	// Groups are in creation order. Positions are append-only: a group
	// keeps its index for as long as it exists, and new groups are only
	// appended (RemoveSeries truncates what the rolled-back insert added).
	Groups []*Group
	// Ends holds the endpoints of each representative by position,
	// Ends[2i], Ends[2i+1] = Groups[i].Rep[0], Groups[i].Rep[Length-1]: the
	// query walk computes every group's LB_Kim key from this contiguous
	// table without dereferencing a group. Representatives are frozen and
	// positions append-only, so Append is its only writer and RemoveSeries
	// truncates it with Groups. It is derived state and never serialized.
	Ends []float64
}

// Append adds g at the next position and records its endpoints in Ends.
func (lg *LengthGroups) Append(g *Group) {
	lg.Groups = append(lg.Groups, g)
	lg.Ends = append(lg.Ends, g.Rep[0], g.Rep[len(g.Rep)-1])
}

// Options configures Build.
type Options struct {
	// ST is the per-point similarity threshold in the dataset's
	// (normalized) units: a group of length-l subsequences uses the
	// absolute threshold ST*l, and members are kept within ST*l/2 of their
	// representative. Expressing ST per point makes one setting meaningful
	// across every indexed length (ED sums grow linearly with length),
	// which is how ONEX compares sequences of different lengths.
	ST float64
	// MinLength and MaxLength bound the subsequence lengths that are
	// enumerated and grouped. MinLength below 2 is raised to 2 (length-1
	// windows carry no shape). MaxLength 0 means the longest series.
	MinLength, MaxLength int
	// Workers bounds the number of concurrent per-length builders;
	// 0 means GOMAXPROCS.
	Workers int
	// SkipRepair preserves the raw online-clustering result (the original
	// ONEX system behaviour). The ST/2 invariant may then be violated by
	// centroid drift; Validate reports by how much.
	SkipRepair bool
}

// BuildStats records what construction did; E3 reports these.
type BuildStats struct {
	Duration   time.Duration
	NumWindows int // subsequences enumerated
	NumGroups  int // groups in the final base
	EDComputed int // full or abandoned ED evaluations during assignment
	Rehomed    int // members moved by the repair pass
	Reseeded   int // singleton groups created by the repair pass
}

// Base is the complete ONEX base for one dataset.
type Base struct {
	// DatasetName and DatasetSum tie the base to the dataset it was built
	// from; Load verifies both before use.
	DatasetName string
	DatasetSum  uint64
	// Norm records the normalization the dataset had at build time.
	Norm ts.NormKind

	// ST is the per-point similarity threshold (see Options.ST); the
	// absolute threshold for length l is HalfST(l)*2.
	ST                   float64
	MinLength, MaxLength int

	// ByLength maps subsequence length to that length's groups.
	ByLength map[int]*LengthGroups

	BuildStats BuildStats

	// indexed tracks which series indices have already been built or
	// streamed into the base, making AddSeries' double-insertion check O(1)
	// instead of a scan over every member of every group. It is not
	// serialized; Read recomputes it from the stored membership.
	indexed map[int]bool
	// repIndex is AddSeries' nearest-representative search structure per
	// length (assign.go). Derived state like indexed: never serialized,
	// built on the first insert into a length (see repIndexFor).
	repIndex map[int]*repIndex
	// hashed is how many leading series of the dataset DatasetSum covers,
	// which lets AddSeries extend the checksum instead of recomputing it
	// (see extendDatasetSum). Zero means not known yet: the base was
	// deserialized and has not seen its dataset.
	hashed int
}

// ErrNoData is returned when the dataset has no subsequence in range.
var ErrNoData = errors.New("grouping: no subsequences in the configured length range")

// Build constructs the ONEX base for dataset d. The dataset should already
// be normalized (ST is interpreted in the dataset's value units either
// way). Build does not retain d; callers pass it again where needed.
func Build(d *ts.Dataset, opts Options) (*Base, error) {
	// Pin mmap-backed values for the whole construction (no-op for heap
	// datasets); every subsequence window is dereferenced below.
	release, err := d.Pin()
	if err != nil {
		return nil, fmt.Errorf("grouping: Build: %w", err)
	}
	defer release()
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("grouping: Build: %w", err)
	}
	if opts.ST <= 0 {
		return nil, fmt.Errorf("grouping: Build: ST must be positive, got %g", opts.ST)
	}
	minLen := opts.MinLength
	if minLen < 2 {
		minLen = 2
	}
	maxLen := opts.MaxLength
	if maxLen <= 0 || maxLen > d.MaxLen() {
		maxLen = d.MaxLen()
	}
	if minLen > maxLen {
		return nil, fmt.Errorf("grouping: Build: empty length range [%d,%d]", minLen, maxLen)
	}
	start := time.Now()

	lengths := make([]int, 0, maxLen-minLen+1)
	for l := minLen; l <= maxLen; l++ {
		lengths = append(lengths, l)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(lengths) {
		workers = len(lengths)
	}

	type lengthResult struct {
		lg    *LengthGroups
		stats BuildStats
	}
	results := make([]lengthResult, len(lengths))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range work {
				lg, st := buildLength(d, lengths[idx], opts.ST, !opts.SkipRepair)
				results[idx] = lengthResult{lg: lg, stats: st}
			}
		}()
	}
	for idx := range lengths {
		work <- idx
	}
	close(work)
	wg.Wait()

	b := &Base{
		DatasetName: d.Name,
		DatasetSum:  DatasetChecksum(d),
		Norm:        d.Norm.Kind,
		ST:          opts.ST,
		MinLength:   minLen,
		MaxLength:   maxLen,
		ByLength:    make(map[int]*LengthGroups),
		indexed:     make(map[int]bool, d.Len()),
		hashed:      d.Len(),
	}
	// Mark every series that contributed windows. Series shorter than
	// MinLength contribute nothing and stay unmarked — re-streaming one is
	// an accepted no-op, exactly like the old member-scan check (and like a
	// base reloaded from disk, where only membership survives).
	for si, s := range d.Series {
		if s.Len() >= minLen {
			b.indexed[si] = true
		}
	}
	for _, res := range results {
		if res.lg == nil || len(res.lg.Groups) == 0 {
			continue
		}
		b.ByLength[res.lg.Length] = res.lg
		b.BuildStats.NumWindows += res.stats.NumWindows
		b.BuildStats.NumGroups += res.stats.NumGroups
		b.BuildStats.EDComputed += res.stats.EDComputed
		b.BuildStats.Rehomed += res.stats.Rehomed
		b.BuildStats.Reseeded += res.stats.Reseeded
	}
	if len(b.ByLength) == 0 {
		return nil, ErrNoData
	}
	b.BuildStats.Duration = time.Since(start)
	return b, nil
}

// addToCentroid adds member ref (values w) to g and moves g.Rep to the new
// member mean; sum carries the running per-position totals behind it.
func addToCentroid(g *Group, sum, w []float64, ref ts.SubSeq) {
	g.Members = append(g.Members, ref)
	inv := 1 / float64(len(g.Members))
	for i, v := range w {
		sum[i] += v
		g.Rep[i] = sum[i] * inv
	}
}

// buildLength clusters every window of one length; this is the hot path of
// base construction.
func buildLength(d *ts.Dataset, length int, st float64, repair bool) (*LengthGroups, BuildStats) {
	var stats BuildStats
	var groups []*Group
	var sums [][]float64 // sums[i] is groups[i]'s running centroid total
	ix := newRepIndex(st*float64(length)/2, nil)

	for si, s := range d.Series {
		if s.Len() < length {
			continue
		}
		for startIdx := 0; startIdx+length <= s.Len(); startIdx++ {
			w := s.Values[startIdx : startIdx+length]
			stats.NumWindows++

			best, evals := ix.nearest(w, groups)
			stats.EDComputed += evals
			ref := ts.SubSeq{Series: si, Start: startIdx, Length: length}
			if best >= 0 {
				addToCentroid(groups[best], sums[best], w, ref)
				ix.moved(best, groups[best].Rep)
			} else {
				g := &Group{Length: length, Rep: make([]float64, length)}
				sum := make([]float64, length)
				addToCentroid(g, sum, w, ref)
				groups, sums = append(groups, g), append(sums, sum)
				ix.add(g.Rep)
			}
		}
	}
	if len(groups) == 0 {
		return nil, stats
	}
	if repair {
		groups = repairLength(d, groups, ix, &stats)
	}

	lg := finishLength(d, length, groups)
	stats.NumGroups = len(lg.Groups)
	return lg, stats
}

// finishLength collects the groups of one length that kept members and
// decides RepIsFirst for each singleton among them. A singleton here is a
// seed whose centroid is its own window: repair never thins a group of
// n >= 2 below two members, because the last member to join lies within
// (1-1/n)·ST/2 of the final centroid and the one before within
// (1-1/(n-1)+1/n)·ST/2 (triangle inequality). The values, not that
// argument, decide the bit, so rounding at the boundary cannot make it
// wrong.
func finishLength(d *ts.Dataset, length int, groups []*Group) *LengthGroups {
	n := 0
	for _, g := range groups {
		if len(g.Members) > 0 {
			n++
		}
	}
	lg := &LengthGroups{Length: length, Groups: make([]*Group, 0, n), Ends: make([]float64, 0, 2*n)}
	for _, g := range groups {
		if len(g.Members) == 0 {
			continue
		}
		if len(g.Members) == 1 {
			g.RepIsFirst = slices.Equal(g.Members[0].Values(d), g.Rep)
		}
		lg.Append(g)
	}
	return lg
}

// repairLength freezes representatives and re-homes members that centroid
// drift pushed beyond ST/2, guaranteeing the §3.1 invariant exactly.
// Members that fit no frozen representative seed new singleton groups whose
// representative is the member itself (trivially within bound). ix indexes
// groups and is kept in step with it.
func repairLength(d *ts.Dataset, groups []*Group, ix *repIndex, stats *BuildStats) []*Group {
	half := ix.half
	var strays []ts.SubSeq
	for gi, g := range groups {
		kept := g.Members[:0]
		for _, m := range g.Members {
			if dist.EDEarlyAbandon(m.Values(d), g.Rep, half) <= half {
				kept = append(kept, m)
			} else {
				strays = append(strays, m)
			}
		}
		g.Members = kept
		if len(kept) == 0 {
			// An emptied group is dropped from the base; strays must not
			// re-home into it.
			ix.remove(gi)
		}
	}
	for _, m := range strays {
		w := m.Values(d)
		best, evals := ix.nearest(w, groups)
		stats.EDComputed += evals
		if best >= 0 {
			// Frozen representative: append member without moving rep.
			groups[best].Members = append(groups[best].Members, m)
			stats.Rehomed++
		} else {
			rep := make([]float64, len(w))
			copy(rep, w)
			groups = append(groups, &Group{Length: len(w), Rep: rep, Members: []ts.SubSeq{m}, RepIsFirst: true})
			ix.add(rep)
			stats.Reseeded++
		}
	}
	return groups
}

// HalfST returns the group radius bound (half the absolute similarity
// threshold) for subsequences of the given length.
func (b *Base) HalfST(length int) float64 { return b.ST * float64(length) / 2 }

// Lengths returns the lengths present in the base, ascending.
func (b *Base) Lengths() []int {
	out := make([]int, 0, len(b.ByLength))
	for l := range b.ByLength {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// GroupsOfLength returns the groups for one length (nil when absent).
func (b *Base) GroupsOfLength(l int) []*Group {
	lg, ok := b.ByLength[l]
	if !ok {
		return nil
	}
	return lg.Groups
}

// NumGroups returns the total group count across lengths.
func (b *Base) NumGroups() int {
	n := 0
	for _, lg := range b.ByLength {
		n += len(lg.Groups)
	}
	return n
}

// NumSubsequences returns the total membership across lengths.
func (b *Base) NumSubsequences() int {
	n := 0
	for _, lg := range b.ByLength {
		for _, g := range lg.Groups {
			n += len(g.Members)
		}
	}
	return n
}

// CompactionRatio is subsequences per group: how much smaller the explored
// set is than the raw candidate population (E3's headline number).
func (b *Base) CompactionRatio() float64 {
	g := b.NumGroups()
	if g == 0 {
		return 0
	}
	return float64(b.NumSubsequences()) / float64(g)
}

// Validate re-checks the construction invariants against the dataset:
// members in range, member length equals group length, every member within
// ST/2 of the representative, RepIsFirst set only where Members[0] equals
// the representative, the endpoint table equal to the representatives'
// endpoints, and every window of every in-range length present exactly
// once.
func (b *Base) Validate(d *ts.Dataset) error {
	release, err := d.Pin()
	if err != nil {
		return fmt.Errorf("grouping: Validate: %w", err)
	}
	defer release()
	if got := DatasetChecksum(d); got != b.DatasetSum {
		return fmt.Errorf("grouping: Validate: dataset checksum %x does not match base %x", got, b.DatasetSum)
	}
	seen := make(map[ts.SubSeq]bool)
	for l, lg := range b.ByLength {
		half := b.HalfST(l)
		if l != lg.Length {
			return fmt.Errorf("grouping: Validate: map key %d != LengthGroups.Length %d", l, lg.Length)
		}
		if len(lg.Ends) != 2*len(lg.Groups) {
			return fmt.Errorf("grouping: Validate: length %d has %d endpoint entries for %d groups", l, len(lg.Ends), len(lg.Groups))
		}
		for gi, g := range lg.Groups {
			if g.Length != l || len(g.Rep) != l {
				return fmt.Errorf("grouping: Validate: length %d group %d has bad shape", l, gi)
			}
			if e0, en := lg.Ends[2*gi], lg.Ends[2*gi+1]; math.Float64bits(e0) != math.Float64bits(g.Rep[0]) || math.Float64bits(en) != math.Float64bits(g.Rep[l-1]) {
				return fmt.Errorf("grouping: Validate: length %d group %d has endpoints (%g, %g), its representative (%g, %g)", l, gi, e0, en, g.Rep[0], g.Rep[l-1])
			}
			if len(g.Members) == 0 {
				return fmt.Errorf("grouping: Validate: length %d group %d is empty", l, gi)
			}
			for _, m := range g.Members {
				if err := m.Validate(d); err != nil {
					return fmt.Errorf("grouping: Validate: %w", err)
				}
				if m.Length != l {
					return fmt.Errorf("grouping: Validate: member %v in length-%d group", m, l)
				}
				if seen[m] {
					return fmt.Errorf("grouping: Validate: member %v appears twice", m)
				}
				seen[m] = true
				if r := dist.ED(m.Values(d), g.Rep); r > half+1e-9 {
					return fmt.Errorf("grouping: Validate: member %v radius %g exceeds ST/2 = %g", m, r, half)
				}
			}
			if g.RepIsFirst && !slices.Equal(g.Members[0].Values(d), g.Rep) {
				return fmt.Errorf("grouping: Validate: length %d group %d has RepIsFirst, but its first member %v differs from the representative", l, gi, g.Members[0])
			}
		}
	}
	// Coverage: every in-range window must be present.
	for si, s := range d.Series {
		for l := b.MinLength; l <= b.MaxLength && l <= s.Len(); l++ {
			if _, ok := b.ByLength[l]; !ok {
				return fmt.Errorf("grouping: Validate: length %d missing from base", l)
			}
			for startIdx := 0; startIdx+l <= s.Len(); startIdx++ {
				if !seen[(ts.SubSeq{Series: si, Start: startIdx, Length: l})] {
					return fmt.Errorf("grouping: Validate: window %s[%d:%d) missing", s.Name, startIdx, startIdx+l)
				}
			}
		}
	}
	return nil
}

// DatasetChecksum computes an order-sensitive FNV-1a digest of the dataset
// name, series names, and raw value bits; used to tie a serialized base to
// its dataset.
func DatasetChecksum(d *ts.Dataset) uint64 {
	h := checksumString(14695981039346656037, d.Name) // FNV-1a offset basis
	for _, s := range d.Series {
		h = checksumSeries(h, s)
	}
	return h
}

const fnvPrime64 = 1099511628211

// checksumString continues the FNV-1a state h over s and a terminator.
func checksumString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return (h ^ 0xFF) * fnvPrime64
}

// checksumSeries continues the FNV-1a state h over one series' name and
// value bits. Because the digest is a running state, the checksum of a
// dataset with one more series is checksumSeries(old checksum, new series).
func checksumSeries(h uint64, s *ts.Series) uint64 {
	h = checksumString(h, s.Name)
	for _, v := range s.Values {
		bits := math.Float64bits(v)
		for k := 0; k < 8; k++ {
			h = (h ^ uint64(byte(bits>>(8*k)))) * fnvPrime64
		}
	}
	return h
}
