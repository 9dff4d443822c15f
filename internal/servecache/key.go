package servecache

import (
	"strconv"
	"strings"

	"repro/onex"
)

// CanonicalQuery encodes a decoded onex.Query as a deterministic cache-key
// fragment. Two queries map to the same fragment exactly when the library
// is guaranteed to produce byte-identical responses for them (matches,
// stats, and the resolved-request echo alike); semantically distinct
// queries always map to distinct fragments.
//
// The encoding therefore applies precisely the default resolution
// DB.Find's echo applies — K < 1 means 1 outside range mode, the empty
// LengthNorm means "length" — and nothing more. Fields whose resolution
// depends on the DB configuration (Mode, Band) or on the base (Lengths)
// are kept verbatim: merging those would still return correct matches,
// but the conservative choice costs only a duplicate cache entry, never a
// wrong answer. The deprecated Workers field is ignored by Find and never
// echoed, so it is not part of the key.
//
// Injectivity comes from the fixed field order, explicit tags, quoted
// strings, length-prefixed lists, and hex float formatting (every float64
// bit pattern except NaN has a unique representation).
func CanonicalQuery(q onex.Query) string {
	var b strings.Builder
	b.Grow(96 + 16*len(q.Values))
	b.WriteString("q1")
	writeFloats(&b, "vals", q.Values)
	writeWindow(&b, q.Window)
	k := q.K
	if q.MaxDist <= 0 && k < 1 {
		k = 1 // Find: top-K mode defaults K to 1 (echoed as 1)
	}
	writeInt(&b, "k", k)
	writeFloat(&b, "maxdist", q.MaxDist)
	writeBool(&b, "xself", q.Exclude.Self)
	writeStrings(&b, "xs", q.Exclude.Series)
	writeInt(&b, "lmin", q.Lengths.Min)
	writeInt(&b, "lmax", q.Lengths.Max)
	writeString(&b, "mode", string(q.Mode))
	writeInt(&b, "band", q.Band)
	norm := q.LengthNorm
	if norm == onex.NormDefault {
		norm = onex.NormLength // the documented default, echoed as "length"
	}
	writeString(&b, "norm", string(norm))
	return b.String()
}

// CanonicalAnalysis is CanonicalQuery's analytics counterpart. It mirrors
// DB.Analyze's kind-specific default resolution — seasonal and
// common-patterns resolve K <= 0 to 16, MinOccurrences and MinSeries
// below 2 to 2 — and keeps every DB- or data-dependent field (Mode, Band,
// Lengths, overview's auto-selected Length) verbatim.
func CanonicalAnalysis(a onex.Analysis) string {
	var b strings.Builder
	b.Grow(96 + 16*(len(a.Values)+len(a.Thresholds)))
	b.WriteString("a1")
	writeString(&b, "kind", string(a.Kind))
	writeString(&b, "series", a.Series)
	writeFloats(&b, "vals", a.Values)
	writeWindow(&b, a.Window)
	writeInt(&b, "len", a.Length)
	writeInt(&b, "idx", a.Index)
	k, minOcc, minSer := a.K, a.MinOccurrences, a.MinSeries
	switch a.Kind {
	case onex.AnalysisSeasonal:
		if k <= 0 {
			k = 16
		}
		minOcc = max(minOcc, 2)
	case onex.AnalysisCommonPatterns:
		if k <= 0 {
			k = 16
		}
		minSer = max(minSer, 2)
	}
	writeInt(&b, "k", k)
	writeInt(&b, "lmin", a.Lengths.Min)
	writeInt(&b, "lmax", a.Lengths.Max)
	writeInt(&b, "minocc", minOcc)
	writeInt(&b, "minser", minSer)
	writeFloats(&b, "th", a.Thresholds)
	writeString(&b, "mode", string(a.Mode))
	writeInt(&b, "band", a.Band)
	return b.String()
}

func writeInt(b *strings.Builder, tag string, v int) {
	b.WriteByte('|')
	//onex:keyok tag is a compile-time literal chosen by this package's canonicalizers, never request data
	b.WriteString(tag)
	b.WriteByte('=')
	b.WriteString(strconv.Itoa(v))
}

func writeBool(b *strings.Builder, tag string, v bool) {
	b.WriteByte('|')
	//onex:keyok tag is a compile-time literal chosen by this package's canonicalizers, never request data
	b.WriteString(tag)
	b.WriteByte('=')
	if v {
		b.WriteByte('1')
	} else {
		b.WriteByte('0')
	}
}

// writeString quotes v, so separator bytes inside names cannot collide
// with the key structure.
func writeString(b *strings.Builder, tag string, v string) {
	b.WriteByte('|')
	//onex:keyok tag is a compile-time literal chosen by this package's canonicalizers, never request data
	b.WriteString(tag)
	b.WriteByte('=')
	b.WriteString(strconv.Quote(v))
}

// writeFloat uses hex float formatting: exact (no rounding), injective on
// every bit pattern except NaN, and it cannot contain '|' or ','.
func writeFloat(b *strings.Builder, tag string, v float64) {
	b.WriteByte('|')
	//onex:keyok tag is a compile-time literal chosen by this package's canonicalizers, never request data
	b.WriteString(tag)
	b.WriteByte('=')
	b.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
}

// writeFloats length-prefixes the list, so element boundaries are
// unambiguous and nil and empty encode identically to each other but
// differently from any non-empty list.
func writeFloats(b *strings.Builder, tag string, vs []float64) {
	b.WriteByte('|')
	//onex:keyok tag is a compile-time literal chosen by this package's canonicalizers, never request data
	b.WriteString(tag)
	b.WriteByte('=')
	b.WriteString(strconv.Itoa(len(vs)))
	b.WriteByte(':')
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
	}
}

func writeStrings(b *strings.Builder, tag string, vs []string) {
	b.WriteByte('|')
	//onex:keyok tag is a compile-time literal chosen by this package's canonicalizers, never request data
	b.WriteString(tag)
	b.WriteByte('=')
	b.WriteString(strconv.Itoa(len(vs)))
	b.WriteByte(':')
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(v))
	}
}

func writeWindow(b *strings.Builder, w onex.Window) {
	writeString(b, "ws", w.Series)
	writeInt(b, "wo", w.Start)
	writeInt(b, "wl", w.Length)
}
