package grouping

import (
	"math"

	"repro/internal/dist"
)

// This file holds the one nearest-representative search every window
// assignment goes through (buildLength, repairLength, Base.AddSeries).
//
// ED here is L1, so for any split of the positions into contiguous segments
//
//	|Σw − Σrep|  ≤  Σ_seg |Σw_seg − Σrep_seg|  ≤  ED(w, rep).
//
// A representative can therefore only be within the group radius
// half = ST·l/2 of a window when their value sums differ by at most half,
// and when the per-segment sums do too. repIndex keeps, per length, a grid
// of cells of width half keyed on each representative's value sum (a window
// looks into the cells its sum ± half spans — three at most) and segCount
// contiguous segment sums per representative in one slab, tested before the
// representative itself is dereferenced. The filter only ever discards
// representatives that are provably farther than half, so the search
// returns exactly what a scan over every group returns: the nearest
// representative within half, ties to the lowest group position.
//
// The index costs memory per group, and a base of singleton groups has
// little else, so it is kept small: sums are held in units of half — the
// radius is 1, a cell is 1 wide — as float32, 4·segCount+8 bytes a group.

// segCount is the number of contiguous segments a window or representative
// is summarized by. More segments tighten the bound (segCount = l would be
// ED itself) and cost four bytes per group each.
const segCount = 4

// segSums is the per-segment value sums of one equal-length sequence;
// segment k covers positions [k·l/segCount, (k+1)·l/segCount).
type segSums [segCount]float64

// sumSegments returns v's segment sums and Σ|v_i|, the scale their rounding
// error is relative to.
func sumSegments(v []float64) (s segSums, abs float64) {
	n := len(v)
	for k := range s {
		sum := 0.0
		for _, x := range v[k*n/segCount : (k+1)*n/segCount] {
			sum += x
			abs += math.Abs(x)
		}
		s[k] = sum
	}
	return s, abs
}

func (s *segSums) total() float64 {
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t
}

// repIndex is the per-length search structure over a []*Group the caller
// owns. It knows groups by their position in that slice — which is also
// what ties break on. Positions are append-only, so the index mirrors the
// slice with add for an append and remove for a group that stops taking
// members.
type repIndex struct {
	half  float64           // group radius ST·l/2: the unit of segs and cells
	segs  []float32         // pos·segCount+k → representative's k-th segment sum / half
	at    []int32           // pos → index inside its cell's list, removed when gone
	cells map[int64][]int32 // grid cell → positions; a group's cell is cellAt(pos)
}

const (
	removed = -1
	// unitEdge saturates sums in units of half inside float32's range.
	// Saturating moves two values no further apart, so the bound survives.
	unitEdge = 1e38
	// cellEdge clamps |cell| so the float→int conversion stays defined and
	// the difference of two cells cannot overflow.
	cellEdge = 1 << 61
)

// newRepIndex indexes the representatives of groups.
func newRepIndex(half float64, groups []*Group) *repIndex {
	ix := &repIndex{
		half:  half,
		segs:  make([]float32, 0, len(groups)*segCount),
		at:    make([]int32, 0, len(groups)),
		cells: make(map[int64][]int32),
	}
	for _, g := range groups {
		ix.add(g.Rep)
	}
	return ix
}

// units expresses segment sums in units of half.
func (ix *repIndex) units(s *segSums) (u segSums) {
	for k, x := range s {
		u[k] = math.Max(-unitEdge, math.Min(unitEdge, x/ix.half))
	}
	return u
}

// reach is the largest segBound, in units of half, a representative with
// dist.ED(w, rep) ≤ half can show against a window w of length l with
// Σ|w_i| = abs: the radius 1 plus what rounding can add. The bound holds in
// exact arithmetic. In floats a segment sum is off by up to l·2⁻⁵³ of its
// Σ|x|, dist.ED by l·2⁻⁵³ of itself, and storing a sum as float32 by 2⁻²⁴ of
// it, where a qualifying representative's Σ|rep_i| is at most abs + half; in
// all under (2.2·(l+segCount)·2⁻⁵³ + 2⁻²⁴)·(1 + abs/half), and the slack is
// twice that. It is relative to the data's magnitude — raw-unit datasets
// (values ~1e6) are as safe as normalized ones — and negligible against 1
// whenever ST is meaningful for the data; when it is not (half below a
// rounding error of the sums) reach grows until nothing is filtered.
func (ix *repIndex) reach(l int, abs float64) float64 {
	return 1 + (float64(l+segCount)*0x1p-51+0x1p-23)*(1+abs/ix.half)
}

// segBound is Σ_seg |u_seg − r_seg|, the lower bound on ED(w, rep)/half
// for a window's sums u and a representative's stored sums r.
func segBound(u *segSums, r []float32) float64 {
	sum := 0.0
	for k, x := range u {
		sum += math.Abs(x - float64(r[k]))
	}
	return sum
}

// cellOf maps a value sum in units of half to its grid cell. It is monotone
// in x, which is all the search needs of it.
func cellOf(x float64) int64 {
	c := math.Floor(x)
	switch {
	case c >= cellEdge:
		return cellEdge
	case c <= -cellEdge:
		return -cellEdge
	case c != c: // NaN sum: such a sequence is within half of nothing
		return 0
	}
	return int64(c)
}

// cellAt is the grid cell of the group at pos: the cell of its stored
// segment sums' total.
func (ix *repIndex) cellAt(pos int) int64 {
	t := 0.0
	for _, x := range ix.segs[pos*segCount : (pos+1)*segCount] {
		t += float64(x)
	}
	return cellOf(t)
}

// store writes rep's segment sums at pos.
func (ix *repIndex) store(pos int, rep []float64) {
	s, _ := sumSegments(rep)
	for k, x := range ix.units(&s) {
		ix.segs[pos*segCount+k] = float32(x)
	}
}

// add indexes the group just appended to the caller's slice.
func (ix *repIndex) add(rep []float64) {
	pos := len(ix.at)
	ix.segs = append(ix.segs, make([]float32, segCount)...)
	ix.at = append(ix.at, removed)
	ix.store(pos, rep)
	ix.place(pos)
}

// moved re-reads the representative at pos after its values changed
// (Build's drifting centroid) and moves it to its new cell if it left the
// old one.
func (ix *repIndex) moved(pos int, rep []float64) {
	was := ix.cellAt(pos)
	ix.store(pos, rep)
	if now := ix.cellAt(pos); now != was {
		ix.unlink(pos, was)
		ix.place(pos)
	}
}

func (ix *repIndex) place(pos int) {
	c := ix.cellAt(pos)
	ix.at[pos] = int32(len(ix.cells[c]))
	ix.cells[c] = append(ix.cells[c], int32(pos))
}

// remove takes the group at pos out of the search; it keeps its position.
func (ix *repIndex) remove(pos int) {
	if ix.at[pos] != removed {
		ix.unlink(pos, ix.cellAt(pos))
	}
}

// unlink drops pos from the list of cell c, which holds it.
func (ix *repIndex) unlink(pos int, c int64) {
	list := ix.cells[c]
	last := list[len(list)-1]
	list[ix.at[pos]] = last
	ix.at[last] = ix.at[pos]
	if len(list) == 1 {
		delete(ix.cells, c)
	} else {
		ix.cells[c] = list[:len(list)-1]
	}
	ix.at[pos] = removed
}

// nearest returns the position of the group whose representative is
// nearest to w among those with dist.ED(w, rep) ≤ half, ties to the lowest
// position, or -1 when none qualifies; evals counts the ED evaluations it
// took. groups is the slice the index mirrors.
func (ix *repIndex) nearest(w []float64, groups []*Group) (pos, evals int) {
	ws, abs := sumSegments(w)
	u := ix.units(&ws)
	reach := ix.reach(len(w), abs)
	total := u.total()
	lo, hi := cellOf(total-reach), cellOf(total+reach)

	sel := selection{pos: -1, dist: ix.half}
	if hi-lo >= int64(len(ix.cells)) {
		// Wider than the grid is populated (ST tiny against the data's
		// magnitude): visiting every cell is cheaper than the range.
		for _, list := range ix.cells {
			ix.scan(list, w, &u, reach, groups, &sel)
		}
	} else {
		for c := lo; c <= hi; c++ {
			ix.scan(ix.cells[c], w, &u, reach, groups, &sel)
		}
	}
	return sel.pos, sel.evals
}

// selection is the best candidate so far. Candidates are visited in no
// particular order, so ties on distance are broken explicitly on position.
type selection struct {
	pos   int
	dist  float64
	evals int
}

func (ix *repIndex) scan(list []int32, w []float64, u *segSums, reach float64, groups []*Group, sel *selection) {
	for _, p := range list {
		pos := int(p)
		if segBound(u, ix.segs[pos*segCount:]) > reach {
			continue
		}
		sel.evals++
		// Abandoning above the best distance so far still returns ties
		// exactly, and the initial best of half admits dd == half.
		dd := dist.EDEarlyAbandon(w, groups[pos].Rep, sel.dist)
		if dd < sel.dist || (dd == sel.dist && (sel.pos < 0 || pos < sel.pos)) {
			sel.pos, sel.dist = pos, dd
		}
	}
}
