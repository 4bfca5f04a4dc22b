package workload

import (
	"fmt"
	"math"
	"math/rand"

	"iolap/internal/agg"
	"iolap/internal/expr"
	"iolap/internal/rel"
)

// Conviva-like video-session workload. The paper's dataset is a proprietary
// 2 TB denormalised fact table of web video sessions ([1], Section 8); this
// generator reproduces the shape the paper's analyses (and [20, 29]) use:
// one wide sessions table with quality metrics (buffer_time, play_time,
// join_time, bitrate, failures) and dimensional attributes (cdn, city,
// country, isp, content_type, device). Buffering follows a heavy-tailed
// exponential and play time is negatively coupled to buffering — the "slow
// buffering impact" effect the SBI example query measures.

// ConvivaScale sizes the synthetic trace.
type ConvivaScale struct {
	Sessions int
	Seed     int64
}

var (
	convivaCDNs      = []string{"cdn_akam", "cdn_level3", "cdn_lime"}
	convivaCities    = []string{"NYC", "SF", "LA", "CHI", "SEA", "BOS", "AUS", "DEN"}
	convivaCountries = []string{"US", "CA", "UK", "DE", "BR"}
	convivaISPs      = []string{"comcast", "verizon", "att", "charter", "cox"}
	convivaContent   = []string{"live", "vod"}
	convivaDevices   = []string{"desktop", "mobile", "tv", "console"}
)

// SessionsSchema is the Conviva-like fact schema.
func SessionsSchema() rel.Schema {
	return rel.Schema{
		{Name: "session_id", Type: rel.KString},
		{Name: "customer_id", Type: rel.KInt},
		{Name: "city", Type: rel.KString},
		{Name: "country", Type: rel.KString},
		{Name: "isp", Type: rel.KString},
		{Name: "cdn", Type: rel.KString},
		{Name: "content_type", Type: rel.KString},
		{Name: "device", Type: rel.KString},
		{Name: "buffer_time", Type: rel.KFloat},
		{Name: "play_time", Type: rel.KFloat},
		{Name: "join_time", Type: rel.KFloat},
		{Name: "bitrate", Type: rel.KFloat},
		{Name: "failures", Type: rel.KInt},
	}
}

// Conviva generates the workload at the given scale.
func Conviva(scale ConvivaScale) *Workload {
	if scale.Sessions <= 0 {
		scale.Sessions = 4000
	}
	rng := rand.New(rand.NewSource(scale.Seed + 9001))
	w := &Workload{
		Name:    "conviva",
		Tables:  make(map[string]*rel.Relation),
		Funcs:   expr.NewRegistry(),
		Aggs:    agg.NewRegistry(),
		Queries: convivaQueries(),
	}
	registerConvivaUDFs(w.Funcs)
	RegisterConvivaUDAFs(w.Aggs)

	sessions := rel.NewRelation(SessionsSchema())
	for i := 0; i < scale.Sessions; i++ {
		cdn := convivaCDNs[rng.Intn(len(convivaCDNs))]
		// Per-CDN quality baseline: cdn_lime buffers more.
		base := 14.0
		if cdn == "cdn_lime" {
			base = 22.0
		}
		bt := round1(base + rng.ExpFloat64()*18)
		// Play time drops with buffering (the SBI effect) plus noise.
		pt := round1(math.Max(5, 420-3.2*bt+rng.NormFloat64()*90))
		jt := round1(0.4 + rng.ExpFloat64()*2.2)
		bitrate := round1(800 + rng.Float64()*4200)
		failures := 0
		if rng.Float64() < 0.15 {
			failures = 1 + rng.Intn(4)
		}
		sessions.Append(
			rel.String(fmt.Sprintf("sess-%07d", i)),
			rel.Int(int64(rng.Intn(maxi(10, scale.Sessions/40)))),
			rel.String(convivaCities[rng.Intn(len(convivaCities))]),
			rel.String(convivaCountries[rng.Intn(len(convivaCountries))]),
			rel.String(convivaISPs[rng.Intn(len(convivaISPs))]),
			rel.String(cdn),
			rel.String(convivaContent[rng.Intn(len(convivaContent))]),
			rel.String(convivaDevices[rng.Intn(len(convivaDevices))]),
			rel.Float(bt),
			rel.Float(pt),
			rel.Float(jt),
			rel.Float(bitrate),
			rel.Int(int64(failures)),
		)
	}
	shuffleRel(sessions, rng)
	w.Tables["conviva_sessions"] = sessions
	return w
}

// registerConvivaUDFs installs the scalar UDFs used by C6 and C7.
func registerConvivaUDFs(r *expr.Registry) {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	// ENGAGEMENT discounts play time by buffering stalls.
	must(r.Register(expr.ScalarFunc{
		Name: "ENGAGEMENT", MinArgs: 2, MaxArgs: 2, RetType: rel.KFloat,
		Fn: func(args []rel.Value) rel.Value {
			if args[0].IsNull() || args[1].IsNull() {
				return rel.Null()
			}
			return rel.Float(args[0].Float() / (1 + args[1].Float()/60))
		},
	}))
	// QUALITYSCORE blends bitrate against failure count.
	must(r.Register(expr.ScalarFunc{
		Name: "QUALITYSCORE", MinArgs: 2, MaxArgs: 2, RetType: rel.KFloat,
		Fn: func(args []rel.Value) rel.Value {
			if args[0].IsNull() || args[1].IsNull() {
				return rel.Null()
			}
			return rel.Float(args[0].Float() / 1000 / (1 + args[1].Float()))
		},
	}))
}

// RegisterConvivaUDAFs installs the user-defined aggregates used by C8, C9
// and C10 (all smooth and sketchable, Section 3.3): geometric mean,
// harmonic mean and root-mean-square.
func RegisterConvivaUDAFs(r *agg.Registry) {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(r.Register(agg.Func{
		Name: "GEOMEAN", TakesArg: true, Smooth: true,
		New: func() agg.Accumulator { return &logMeanAcc{} },
	}))
	must(r.Register(agg.Func{
		Name: "HARMONIC", TakesArg: true, Smooth: true,
		New: func() agg.Accumulator { return &harmonicAcc{} },
	}))
	must(r.Register(agg.Func{
		Name: "RMS", TakesArg: true, Smooth: true,
		New: func() agg.Accumulator { return &rmsAcc{} },
	}))
}

// logMeanAcc sketches a geometric mean as a weighted mean of logs.
type logMeanAcc struct{ logSum, n float64 }

func (a *logMeanAcc) Add(v, w float64) {
	if v > 0 {
		a.logSum += math.Log(v) * w
		a.n += w
	}
}
func (a *logMeanAcc) Result(float64) float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return math.Exp(a.logSum / a.n)
}
func (a *logMeanAcc) Merge(o agg.Accumulator) {
	b := o.(*logMeanAcc)
	a.logSum += b.logSum
	a.n += b.n
}
func (a *logMeanAcc) Clone() agg.Accumulator { c := *a; return &c }
func (a *logMeanAcc) Reset()                 { a.logSum, a.n = 0, 0 }
func (a *logMeanAcc) SizeBytes() int         { return 16 }

// harmonicAcc sketches a harmonic mean as a weighted mean of reciprocals.
type harmonicAcc struct{ invSum, n float64 }

func (a *harmonicAcc) Add(v, w float64) {
	if v > 0 {
		a.invSum += w / v
		a.n += w
	}
}
func (a *harmonicAcc) Result(float64) float64 {
	if a.invSum == 0 {
		return math.NaN()
	}
	return a.n / a.invSum
}
func (a *harmonicAcc) Merge(o agg.Accumulator) {
	b := o.(*harmonicAcc)
	a.invSum += b.invSum
	a.n += b.n
}
func (a *harmonicAcc) Clone() agg.Accumulator { c := *a; return &c }
func (a *harmonicAcc) Reset()                 { a.invSum, a.n = 0, 0 }
func (a *harmonicAcc) SizeBytes() int         { return 16 }

// rmsAcc sketches a root-mean-square.
type rmsAcc struct{ sqSum, n float64 }

func (a *rmsAcc) Add(v, w float64) {
	a.sqSum += v * v * w
	a.n += w
}
func (a *rmsAcc) Result(float64) float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return math.Sqrt(a.sqSum / a.n)
}
func (a *rmsAcc) Merge(o agg.Accumulator) {
	b := o.(*rmsAcc)
	a.sqSum += b.sqSum
	a.n += b.n
}
func (a *rmsAcc) Clone() agg.Accumulator { c := *a; return &c }
func (a *rmsAcc) Reset()                 { a.sqSum, a.n = 0, 0 }
func (a *rmsAcc) SizeBytes() int         { return 16 }
