// Package experiments regenerates every table and figure of the paper's
// evaluation section (section 7): Table 1 (cost profiles), Table 2 (document
// characteristics), Figure 8 (index storage overhead), Figure 9 (access
// control overhead), Figure 10 (impact of queries), Figure 11 (integrity
// control) and Figure 12 (performance on real datasets). Each experiment
// returns a structured result and can render itself as a text table whose
// rows mirror the ones the paper reports; Tables 1 and 2 and Figure 8 print
// the paper's values beside the measured ones.
package experiments

import (
	"fmt"
	"strings"

	"xmlac/internal/accessrule"
	"xmlac/internal/dataset"
	"xmlac/internal/secure"
	"xmlac/internal/skipindex"
	"xmlac/internal/soe"
	"xmlac/internal/xmlstream"
)

// Config controls the size of the generated workloads. Scale 1.0 aims at the
// paper's document sizes (3.6 MB Hospital, 59 MB Treebank); the default used
// by the test suite and the Go benchmarks is much smaller so runs stay
// fast, while the xmlac-bench command can raise it.
type Config struct {
	// Scale multiplies the dataset generator sizes.
	Scale float64
	// Profile is the cost profile used for execution-time estimates
	// (default: the hardware smart card of Table 1, the platform the paper
	// measures).
	Profile soe.CostProfile
	// Key encrypts the workloads.
	Key secure.Key
}

// DefaultConfig returns the configuration used by tests and benchmarks.
func DefaultConfig() Config {
	return Config{
		Scale:   0.02,
		Profile: soe.HardwareSmartCard(),
		Key:     secure.DeriveKey("xmlac-experiments"),
	}
}

func (c Config) normalize() Config {
	if c.Scale <= 0 {
		c.Scale = 0.02
	}
	if c.Profile.Name == "" {
		c.Profile = soe.HardwareSmartCard()
	}
	if len(c.Key) != 24 {
		c.Key = secure.DeriveKey("xmlac-experiments")
	}
	return c
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

// Table1Row is one row of Table 1.
type Table1Row struct {
	Context      string
	CommMBps     float64
	DecryptMBps  float64
	PaperComm    float64
	PaperDecrypt float64
}

// Table1Result reproduces Table 1 (communication and decryption costs).
type Table1Result struct {
	Rows []Table1Row
}

// Table1 returns the communication/decryption constants used by the cost
// model alongside the values published in the paper.
func Table1() *Table1Result {
	res := &Table1Result{}
	paper := map[string][2]float64{
		"hardware":          {0.5, 0.15},
		"software-internet": {0.1, 1.2},
		"software-lan":      {10, 1.2},
	}
	for _, p := range soe.Profiles() {
		row := Table1Row{
			Context:     p.Name,
			CommMBps:    p.CommBytesPerSec / (1024 * 1024),
			DecryptMBps: p.DecryptBytesPerSec / (1024 * 1024),
		}
		row.PaperComm = paper[p.Name][0]
		row.PaperDecrypt = paper[p.Name][1]
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Render formats the result as a text table.
func (t *Table1Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 1. Communication and decryption costs\n")
	fmt.Fprintf(&sb, "%-20s %14s %14s %14s %14s\n", "Context", "Comm (MB/s)", "Decrypt (MB/s)", "paper comm", "paper decrypt")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-20s %14.2f %14.2f %14.2f %14.2f\n", r.Context, r.CommMBps, r.DecryptMBps, r.PaperComm, r.PaperDecrypt)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

// Table2Row describes one generated dataset next to the paper's reported
// characteristics of the original.
type Table2Row struct {
	Name string
	// Measured characteristics of the generated document at the configured
	// scale.
	Measured xmlstream.Stats
	// Paper values (full-size originals).
	PaperSizeBytes    int64
	PaperTextBytes    int64
	PaperMaxDepth     int
	PaperAvgDepth     float64
	PaperDistinctTags int
	PaperTextNodes    int
	PaperElements     int
	// Scale used for the generation.
	Scale float64
}

// Table2Result reproduces Table 2 (documents characteristics).
type Table2Result struct {
	Rows []Table2Row
}

// Table2 generates each dataset at the configured scale and measures it.
func Table2(cfg Config) *Table2Result {
	cfg = cfg.normalize()
	res := &Table2Result{}
	for _, spec := range dataset.Specs() {
		doc := spec.Generate(cfg.Scale)
		res.Rows = append(res.Rows, Table2Row{
			Name:              spec.Name,
			Measured:          xmlstream.ComputeStats(doc),
			PaperSizeBytes:    spec.PaperSizeBytes,
			PaperTextBytes:    spec.PaperTextBytes,
			PaperMaxDepth:     spec.PaperMaxDepth,
			PaperAvgDepth:     spec.PaperAvgDepth,
			PaperDistinctTags: spec.PaperDistinctTags,
			PaperTextNodes:    spec.PaperTextNodes,
			PaperElements:     spec.PaperElements,
			Scale:             cfg.Scale,
		})
	}
	return res
}

// Render formats the result as a text table.
func (t *Table2Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 2. Documents characteristics (measured at scale / paper full size)\n")
	fmt.Fprintf(&sb, "%-10s %12s %12s %10s %10s %8s %12s %12s\n",
		"Dataset", "Size", "Text size", "Max depth", "Avg depth", "#tags", "#text nodes", "#elements")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-10s %12d %12d %10d %10.1f %8d %12d %12d\n",
			r.Name, r.Measured.SerializedSize, r.Measured.TextSize, r.Measured.MaxDepth,
			r.Measured.AvgDepth, r.Measured.DistinctTags, r.Measured.TextNodes, r.Measured.Elements)
		fmt.Fprintf(&sb, "%-10s %12d %12d %10d %10.1f %8d %12d %12d\n",
			"  (paper)", r.PaperSizeBytes, r.PaperTextBytes, r.PaperMaxDepth,
			r.PaperAvgDepth, r.PaperDistinctTags, r.PaperTextNodes, r.PaperElements)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------------

// Figure8Row is the structure/text ratio of every encoding variant for one
// dataset.
type Figure8Row struct {
	Dataset string
	// RatioPercent maps variant name -> structure/text ratio in percent.
	RatioPercent map[string]float64
	// StructureBytes maps variant name -> structure bytes.
	StructureBytes map[string]int64
}

// Figure8Result reproduces Figure 8 (index storage overhead).
type Figure8Result struct {
	Rows []Figure8Row
	// Paper values of the TCSBR ratio, for reference in reports.
	PaperTCSBR map[string]float64
}

// Figure8 measures the five encodings (NC, TC, TCS, TCSB, TCSBR) on the four
// datasets.
func Figure8(cfg Config) *Figure8Result {
	cfg = cfg.normalize()
	res := &Figure8Result{PaperTCSBR: map[string]float64{
		"WSU": 78, "Sigmod": 15, "Treebank": 23, "Hospital": 14,
	}}
	for _, spec := range dataset.Specs() {
		doc := spec.Generate(cfg.Scale)
		row := Figure8Row{
			Dataset:        spec.Name,
			RatioPercent:   map[string]float64{},
			StructureBytes: map[string]int64{},
		}
		for _, rep := range skipindex.MeasureAll(doc) {
			row.RatioPercent[rep.Variant.String()] = rep.StructureOverText
			row.StructureBytes[rep.Variant.String()] = rep.StructureBytes
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Render formats the result as a text table.
func (f *Figure8Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 8. Index storage overhead (structure/text, %)\n")
	variants := []string{"NC", "TC", "TCS", "TCSB", "TCSBR"}
	fmt.Fprintf(&sb, "%-10s", "Dataset")
	for _, v := range variants {
		fmt.Fprintf(&sb, " %9s", v)
	}
	fmt.Fprintf(&sb, " %14s\n", "paper TCSBR")
	for _, r := range f.Rows {
		fmt.Fprintf(&sb, "%-10s", r.Dataset)
		for _, v := range variants {
			fmt.Fprintf(&sb, " %9.0f", r.RatioPercent[v])
		}
		fmt.Fprintf(&sb, " %14.0f\n", f.PaperTCSBR[r.Dataset])
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Helpers shared by Figures 9-12
// ---------------------------------------------------------------------------

// hospitalProfiles returns the three access-control policies of the
// motivating example in the configuration the paper uses for Figure 9: the
// researcher is granted 10 protocols "to measure the impact of a rather
// complex access control policy".
func hospitalProfiles() map[string]*accessrule.Policy {
	return map[string]*accessrule.Policy{
		"Secretary":  accessrule.SecretaryPolicy(),
		"Doctor":     accessrule.DoctorPolicy(dataset.FullTimePhysician()),
		"Researcher": accessrule.ResearcherPolicy(accessrule.ResearcherGroups(10)...),
	}
}

// profileOrder keeps the rendering order stable.
var profileOrder = []string{"Secretary", "Doctor", "Researcher"}

// newHospitalWorkload builds the Hospital workload at the configured scale.
func newHospitalWorkload(cfg Config) (*soe.Workload, error) {
	doc := dataset.Hospital(cfg.Scale)
	return soe.NewWorkload("Hospital", doc, cfg.Key)
}
