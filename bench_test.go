package xmlac

import (
	"fmt"
	"io"
	"testing"
	"time"

	"xmlac/internal/accessrule"
	"xmlac/internal/core"
	"xmlac/internal/dataset"
	"xmlac/internal/experiments"
	"xmlac/internal/secure"
	"xmlac/internal/skipindex"
	"xmlac/internal/soe"
	"xmlac/internal/xmlstream"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation section (Tables 1-2, Figures 8-12) through the experiment
// harness, plus micro-benchmarks of the individual pipeline stages. The
// harness runs at a reduced dataset scale so `go test -bench=.` stays fast;
// the xmlac-bench command runs the same experiments at arbitrary scales and
// prints the full tables.

// benchConfig is the dataset scale used by the benchmark harness.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 0.02
	return cfg
}

// BenchmarkTable1CostProfiles regenerates Table 1 (communication and
// decryption costs per architecture).
func BenchmarkTable1CostProfiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if res := experiments.Table1(); len(res.Rows) != 3 {
			b.Fatal("unexpected Table 1 shape")
		}
	}
}

// BenchmarkTable2Datasets regenerates Table 2 (documents characteristics of
// WSU, Sigmod, Treebank and Hospital).
func BenchmarkTable2Datasets(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := experiments.Table2(cfg); len(res.Rows) != 4 {
			b.Fatal("unexpected Table 2 shape")
		}
	}
}

// BenchmarkFigure8IndexOverhead regenerates Figure 8 (storage overhead of
// the NC, TC, TCS, TCSB and TCSBR encodings on the four datasets).
func BenchmarkFigure8IndexOverhead(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if res := experiments.Figure8(cfg); len(res.Rows) != 4 {
			b.Fatal("unexpected Figure 8 shape")
		}
	}
}

// BenchmarkFigure9AccessControl regenerates Figure 9 (BF vs TCSBR vs LWB for
// the secretary, doctor and researcher profiles on the Hospital document).
func BenchmarkFigure9AccessControl(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 3 {
			b.Fatal("unexpected Figure 9 shape")
		}
	}
}

// BenchmarkFigure10Queries regenerates Figure 10 (query execution time as a
// function of the result size over five views).
func BenchmarkFigure10Queries(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) != 5 {
			b.Fatal("unexpected Figure 10 shape")
		}
	}
}

// BenchmarkFigure11Integrity regenerates Figure 11 (ECB, CBC-SHA, CBC-SHAC
// and ECB-MHT integrity schemes).
func BenchmarkFigure11Integrity(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 3 {
			b.Fatal("unexpected Figure 11 shape")
		}
	}
}

// BenchmarkFigure12Throughput regenerates Figure 12 (throughput on the real
// datasets and the Hospital profiles, with and without integrity).
func BenchmarkFigure12Throughput(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 6 {
			b.Fatal("unexpected Figure 12 shape")
		}
	}
}

// --- Micro-benchmarks of the pipeline stages (wall-clock performance of
// this implementation rather than smart-card estimates) -------------------

// benchHospital builds a fixed hospital document reused across
// micro-benchmarks.
func benchHospital(b *testing.B) *xmlstream.Node {
	b.Helper()
	return dataset.HospitalFolders(150, 99)
}

// BenchmarkStreamingEvaluator measures the raw streaming evaluator over an
// in-memory event stream (no encryption), per policy.
func BenchmarkStreamingEvaluator(b *testing.B) {
	doc := benchHospital(b)
	policies := map[string]*accessrule.Policy{
		"secretary":  accessrule.SecretaryPolicy(),
		"doctor":     accessrule.DoctorPolicy("DrA"),
		"researcher": accessrule.ResearcherPolicy(accessrule.ResearcherGroups(10)...),
	}
	size := int64(len(xmlstream.SerializeTree(doc, false)))
	for name, policy := range policies {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				if _, err := core.Evaluate(xmlstream.NewTreeReader(doc), policy, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSkipIndexEncode measures the Skip-index encoder.
func BenchmarkSkipIndexEncode(b *testing.B) {
	doc := benchHospital(b)
	size := int64(len(xmlstream.SerializeTree(doc, false)))
	b.ReportAllocs()
	b.SetBytes(size)
	for i := 0; i < b.N; i++ {
		if _, err := skipindex.Encode(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSkipIndexDecode measures the streaming decoder over the full
// document (no skips).
func BenchmarkSkipIndexDecode(b *testing.B) {
	doc := benchHospital(b)
	enc, err := skipindex.Encode(doc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(enc.Data)))
	for i := 0; i < b.N; i++ {
		dec, err := skipindex.NewDecoder(skipindex.NewBytesSource(enc.Data))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := dec.Next(); err != nil {
				break
			}
		}
	}
}

// BenchmarkSecureReaderSchemes measures the secure reader scanning a
// protected document under each scheme.
func BenchmarkSecureReaderSchemes(b *testing.B) {
	doc := benchHospital(b)
	enc, err := skipindex.Encode(doc)
	if err != nil {
		b.Fatal(err)
	}
	key := secure.DeriveKey("bench")
	for _, scheme := range secure.Schemes() {
		prot, err := secure.Protect(enc.Data, key, secure.ProtectOptions{Scheme: scheme})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(scheme.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc.Data)))
			buf := make([]byte, 4096)
			for i := 0; i < b.N; i++ {
				r, err := secure.NewReader(prot, key)
				if err != nil {
					b.Fatal(err)
				}
				for off := int64(0); off < int64(prot.PlainLen); off += int64(len(buf)) {
					if _, err := r.ReadAt(buf, off); err != nil && err.Error() != "EOF" {
						break
					}
				}
			}
		})
	}
}

// BenchmarkEndToEndPipeline measures the full SOE pipeline (secure reader +
// skip-index decoder + evaluator) per strategy, for the doctor profile.
func BenchmarkEndToEndPipeline(b *testing.B) {
	doc := benchHospital(b)
	w, err := soe.NewWorkload("hospital", doc, secure.DeriveKey("bench"))
	if err != nil {
		b.Fatal(err)
	}
	policy := accessrule.DoctorPolicy("DrA")
	for _, strat := range []soe.Strategy{soe.BruteForce, soe.SkipIndexStrategy, soe.LowerBound} {
		b.Run(strat.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(w.EncodedSize())
			for i := 0; i < b.N; i++ {
				if _, err := w.Run(soe.RunSpec{
					Strategy: strat,
					Policy:   policy,
					Scheme:   secure.SchemeECBMHT,
					Profile:  soe.HardwareSmartCard(),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSubtreeDecisions compares the evaluator with and without
// the DecideSubtree/SkipSubtree optimization (design choice 2 of DESIGN.md).
func BenchmarkAblationSubtreeDecisions(b *testing.B) {
	doc := benchHospital(b)
	policy := accessrule.ResearcherPolicy(accessrule.ResearcherGroups(10)...)
	for _, disabled := range []bool{false, true} {
		name := "enabled"
		if disabled {
			name = "disabled"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := core.Options{DisableSubtreeDecisions: disabled}
				if _, err := core.Evaluate(xmlstream.NewTreeReader(doc), policy, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPredicateShortCircuit compares the evaluator with and
// without the predicate short-circuit optimization (design choice 5 of
// DESIGN.md).
func BenchmarkAblationPredicateShortCircuit(b *testing.B) {
	doc := benchHospital(b)
	policy := accessrule.DoctorPolicy("DrA")
	for _, disabled := range []bool{false, true} {
		name := "enabled"
		if disabled {
			name = "disabled"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := core.Options{DisablePredicateShortCircuit: disabled}
				if _, err := core.Evaluate(xmlstream.NewTreeReader(doc), policy, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPublicAPIAuthorizedView measures the end-to-end public API as a
// downstream user would call it.
func BenchmarkPublicAPIAuthorizedView(b *testing.B) {
	root := dataset.HospitalFolders(80, 5)
	doc, err := ParseDocumentString(xmlstream.SerializeTree(root, false))
	if err != nil {
		b.Fatal(err)
	}
	key := DeriveKey("bench")
	prot, err := Protect(doc, key, SchemeECBMHT)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := prot.AuthorizedView(key, DoctorPolicy("DrA"), ViewOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentAuthorizedViews is the server scenario: N goroutines
// stream authorized views for M distinct subjects over one protected
// hospital document. "per-request-compile" re-parses every rule on every
// call (the pre-CompiledPolicy behaviour of AuthorizedView);
// "compiled-cached" compiles each subject's policy once and reuses it, the
// way internal/server compiles each policy when it is installed. The delta
// is the compilation work that removes from the hot path.
func BenchmarkConcurrentAuthorizedViews(b *testing.B) {
	root := dataset.HospitalFolders(4, 42)
	doc, err := ParseDocumentString(xmlstream.SerializeTree(root, false))
	if err != nil {
		b.Fatal(err)
	}
	key := DeriveKey("bench")
	prot, err := Protect(doc, key, SchemeECBMHT)
	if err != nil {
		b.Fatal(err)
	}
	// 32 distinct subjects with rule-heavy researcher policies (21 rules
	// each): the repeated-subject case a server cache serves.
	const subjects = 32
	policies := make([]Policy, subjects)
	compiled := make([]*CompiledPolicy, subjects)
	groups := accessrule.ResearcherGroups(10)
	for i := range policies {
		p := ResearcherPolicy(groups...)
		p.Subject = fmt.Sprintf("researcher-%02d", i)
		policies[i] = p
		cp, err := p.Compile()
		if err != nil {
			b.Fatal(err)
		}
		compiled[i] = cp
	}
	run := func(b *testing.B, view func(i int) error) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if err := view(i); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "views/s")
	}
	b.Run("per-request-compile", func(b *testing.B) {
		run(b, func(i int) error {
			_, _, err := prot.AuthorizedView(key, policies[i%subjects], ViewOptions{})
			return err
		})
	})
	b.Run("compiled-cached", func(b *testing.B) {
		run(b, func(i int) error {
			_, _, err := prot.AuthorizedViewCompiled(key, compiled[i%subjects], ViewOptions{})
			return err
		})
	})
}

// BenchmarkStreamingView compares the two view-delivery paths on the
// scale-1.0 hospital document (the paper's evaluation dataset at full size):
// "materialized" runs AuthorizedViewCompiled and serializes the resulting
// tree (the historical API), "streaming" runs StreamAuthorizedViewCompiled
// straight into the destination writer. Same evaluation, same bytes out —
// the delta is pure delivery overhead: the materialized path allocates the
// view tree plus its serialized string, the streaming path allocates
// neither, so its B/op must be strictly lower and its time-to-first-byte
// (reported as ttfb-ms) is the evaluator's, not the whole view's.
func BenchmarkStreamingView(b *testing.B) {
	doc, err := ParseDocumentString(xmlstream.SerializeTree(dataset.Hospital(1.0), false))
	if err != nil {
		b.Fatal(err)
	}
	key := DeriveKey("bench")
	prot, err := Protect(doc, key, SchemeECBMHT)
	if err != nil {
		b.Fatal(err)
	}
	profiles := []struct {
		name   string
		policy Policy
	}{
		{"secretary", SecretaryPolicy()},
		{"doctor", DoctorPolicy("DrA")},
	}
	for _, p := range profiles {
		cp, err := p.policy.Compile()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(p.name+"/materialized", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				view, _, err := prot.AuthorizedViewCompiled(key, cp, ViewOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.WriteString(io.Discard, view.XML()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(p.name+"/streaming", func(b *testing.B) {
			b.ReportAllocs()
			var ttfb time.Duration
			for i := 0; i < b.N; i++ {
				metrics, err := prot.StreamAuthorizedViewCompiled(key, cp, ViewOptions{}, io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				ttfb += metrics.TimeToFirstByte
			}
			b.ReportMetric(float64(ttfb.Nanoseconds())/1e6/float64(b.N), "ttfb-ms")
		})
	}
}

// BenchmarkXPathParse measures rule compilation (parsing + ARA
// construction), which happens once per (document, user) session.
func BenchmarkXPathParse(b *testing.B) {
	exprs := []string{
		"//Folder/Admin",
		"//MedActs[//RPhys = USER]",
		"//Folder[Protocol/Type=G3]//LabResults//G3",
		"//G3[Cholesterol > 250]",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, e := range exprs {
			if err := ValidateXPath(e); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDatasetGenerators measures the synthetic dataset generators.
func BenchmarkDatasetGenerators(b *testing.B) {
	for _, spec := range dataset.Specs() {
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if doc := spec.Generate(0.01); doc == nil {
					b.Fatal("nil document")
				}
			}
		})
	}
}

// Example-style benchmark output helper: report the compressed size of each
// dataset once (helps interpreting the figures in bench output).
func BenchmarkEncodedSizes(b *testing.B) {
	for _, spec := range dataset.Specs() {
		b.Run(spec.Name, func(b *testing.B) {
			doc := spec.Generate(0.02)
			var encodedLen int
			for i := 0; i < b.N; i++ {
				enc, err := skipindex.Encode(doc)
				if err != nil {
					b.Fatal(err)
				}
				encodedLen = len(enc.Data)
			}
			b.ReportMetric(float64(encodedLen), "encoded-bytes")
			_ = fmt.Sprintf("%d", encodedLen)
		})
	}
}
