package server

import (
	"fmt"
	"html/template"
	"net/http"

	"repro/internal/dist"
	"repro/internal/viz"
	"repro/onex"
)

func (s *Server) handleVizOverview(w http.ResponseWriter, r *http.Request) {
	db, ok := s.db(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "dataset %q not loaded", r.PathValue("name"))
		return
	}
	length := queryInt(r, "length", 0)
	k := queryInt(r, "k", 12)
	res, err := db.Analyze(r.Context(), onex.Analysis{Kind: onex.AnalysisOverview, Length: max(length, 0), K: k})
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	cells := make([]viz.OverviewCell, len(res.Groups))
	//onex:nopoll rendering an already-computed overview of at most k tiles; the walk polled inside Analyze
	for i, g := range res.Groups {
		cells[i] = viz.OverviewCell{
			Rep:   g.Rep,
			Count: g.Count,
			Label: fmt.Sprintf("len %d · n=%d", g.Length, g.Count),
		}
	}
	writeSVG(w, viz.OverviewGrid("ONEX similarity groups — "+r.PathValue("name"), cells, 4, 120, 72))
}

func (s *Server) handleVizMatch(w http.ResponseWriter, r *http.Request) {
	db, ok := s.db(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "dataset %q not loaded", r.PathValue("name"))
		return
	}
	series := r.URL.Query().Get("series")
	start := queryInt(r, "start", 0)
	length := queryInt(r, "len", 0)
	if series == "" || length <= 0 {
		writeErr(w, http.StatusBadRequest, "series and len are required")
		return
	}
	m, err := s.windowMatch(r, db, series, start, length)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	vals, err := db.SeriesValues(series)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	q := vals[start : start+length]
	path := make(dist.WarpPath, len(m.Path))
	for i, p := range m.Path {
		path[i] = dist.PathStep{I: p[0], J: p[1]}
	}
	title := fmt.Sprintf("best match: %s[%d:%d) vs %s[%d:%d), DTW=%.4f",
		series, start, start+length, m.Series, m.Start, m.Start+m.Length, m.Dist)
	writeSVG(w, viz.WarpChart(title,
		viz.NamedSeries{Name: series, Values: q},
		viz.NamedSeries{Name: m.Series, Values: m.Values},
		path, 640, 280))
}

// windowMatch runs the demo's similarity flow — the best match for the
// window [start, start+length) of series, excluding the window's own
// overlaps — under the request's context, so a closed tab cancels the walk.
func (s *Server) windowMatch(r *http.Request, db *onex.DB, series string, start, length int) (onex.Match, error) {
	res, err := db.Find(r.Context(), onex.Query{
		Window:  onex.Window{Series: series, Start: start, Length: length},
		Exclude: onex.Exclude{Self: true},
	})
	if err != nil {
		return onex.Match{}, err
	}
	return res.Matches[0], nil
}

func (s *Server) handleVizRadial(w http.ResponseWriter, r *http.Request) {
	db, ok := s.db(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "dataset %q not loaded", r.PathValue("name"))
		return
	}
	a, b, err := twoSeries(db, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeSVG(w, viz.RadialChart("radial — "+r.PathValue("name"), a, b, 360))
}

func (s *Server) handleVizScatter(w http.ResponseWriter, r *http.Request) {
	db, ok := s.db(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "dataset %q not loaded", r.PathValue("name"))
		return
	}
	a, b, err := twoSeries(db, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeSVG(w, viz.ConnectedScatter("connected scatter — "+r.PathValue("name"), a, b, nil, 360))
}

func twoSeries(db interface {
	SeriesValues(string) ([]float64, error)
}, r *http.Request) (viz.NamedSeries, viz.NamedSeries, error) {
	an := r.URL.Query().Get("a")
	bn := r.URL.Query().Get("b")
	if an == "" || bn == "" {
		return viz.NamedSeries{}, viz.NamedSeries{}, fmt.Errorf("a and b series are required")
	}
	av, err := db.SeriesValues(an)
	if err != nil {
		return viz.NamedSeries{}, viz.NamedSeries{}, err
	}
	bv, err := db.SeriesValues(bn)
	if err != nil {
		return viz.NamedSeries{}, viz.NamedSeries{}, err
	}
	return viz.NamedSeries{Name: an, Values: av}, viz.NamedSeries{Name: bn, Values: bv}, nil
}

func (s *Server) handleVizSeasonal(w http.ResponseWriter, r *http.Request) {
	db, ok := s.db(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "dataset %q not loaded", r.PathValue("name"))
		return
	}
	series := r.URL.Query().Get("series")
	if series == "" {
		writeErr(w, http.StatusBadRequest, "series is required")
		return
	}
	length := max(queryInt(r, "len", 0), 0) // 0 = every indexed length
	res, err := db.Analyze(r.Context(), onex.Analysis{
		Kind:    onex.AnalysisSeasonal,
		Series:  series,
		Lengths: onex.Lengths{Min: length, Max: length},
	})
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	pats := res.Patterns
	vals, err := db.SeriesValues(series)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	var segs []viz.SeasonalSegment
	title := fmt.Sprintf("seasonal — %s (no pattern)", series)
	if len(pats) > 0 {
		p := pats[0]
		for _, st := range p.Starts {
			segs = append(segs, viz.SeasonalSegment{Start: st, Length: p.Length})
		}
		title = fmt.Sprintf("seasonal — %s: %d occurrences of a length-%d pattern (mean gap %.1f)",
			series, p.Occurrences, p.Length, p.MeanGap)
	}
	writeSVG(w, viz.SeasonalView(title, vals, segs, 760, 260))
}

var indexTemplate = template.Must(template.New("index").Parse(`<!doctype html>
<html><head><title>ONEX — Online Exploration of Time Series</title>
<style>
 body { font-family: sans-serif; margin: 2em; color: #222; max-width: 60em; }
 code { background: #f4f4f4; padding: 1px 4px; }
 td, th { padding: 4px 10px; border-bottom: 1px solid #ddd; text-align: left; }
</style></head>
<body>
<h1>ONEX — Online Exploration of Time Series</h1>
<p>Go reproduction of the SIGMOD'17 demo. Load a dataset (triggers server-side
preprocessing into the ONEX base), then explore via the JSON API or the SVG views.</p>
<h2>Loaded datasets</h2>
<table><tr><th>name</th><th>series</th><th>subsequences</th><th>groups</th><th>compaction</th><th>ST</th><th>views</th></tr>
{{range .}}<tr><td>{{.Name}}</td><td>{{.Stats.Series}}</td><td>{{.Stats.Subsequences}}</td>
<td>{{.Stats.Groups}}</td><td>{{printf "%.1f" .Stats.CompactionRatio}}</td><td>{{printf "%.4f" .ST}}</td>
<td><a href="/explore/{{.Name}}">explore</a> · <a href="/viz/{{.Name}}/overview.svg">overview</a></td></tr>
{{else}}<tr><td colspan="7"><i>none yet — POST /api/v1/datasets/load</i></td></tr>{{end}}
</table>
<h2>API</h2>
<pre>
POST /api/v1/datasets/load             {"name":"growth","source":"matters:GrowthRate"}
GET  /api/v1/datasets
GET  /api/v1/datasets/{name}/series
POST /api/v1/datasets/{name}/query     {"window":{"series":"MA","start":0,"length":12},"exclude":{"self":true},"k":5}
POST /api/v1/datasets/{name}/query     {"values":[2,2.5,3,2.5,2],"max_dist":0.05}
POST /api/v1/datasets/{name}/query/stream  (same body; NDJSON, approximate first, exact last)
POST /api/v1/datasets/{name}/analyze   {"kind":"overview","k":12}
POST /api/v1/datasets/{name}/analyze   {"kind":"seasonal","series":"household-00","lengths":{"min":12,"max":12}}
POST /api/v1/datasets/{name}/analyze   {"kind":"threshold-recommend"}
GET  /viz/{name}/match.svg?series=MA&start=0&len=12
GET  /viz/{name}/radial.svg?a=MA&b=AR      /viz/{name}/scatter.svg?a=MA&b=AR
GET  /viz/{name}/seasonal.svg?series=household-00&len=12
</pre>
</body></html>
`))

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.dbs))
	for n := range s.dbs {
		names = append(names, n)
	}
	s.mu.RUnlock()
	infos := make([]DatasetInfo, 0, len(names))
	for _, n := range names {
		if db, ok := s.db(n); ok {
			infos = append(infos, DatasetInfo{Name: n, Stats: db.Stats(), ST: db.ST()})
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = indexTemplate.Execute(w, infos)
}
