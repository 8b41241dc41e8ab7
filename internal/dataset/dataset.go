// Package dataset provides deterministic generators for the four documents
// used by the paper's evaluation (section 7, Table 2): the synthetic
// Hospital document of the motivating example (the paper generated it with
// ToXgene) and synthetic stand-ins for the three real datasets of the UW XML
// repository (WSU course records, Sigmod Record, Treebank). The real files
// are not redistributable and unavailable offline, so the generators
// reproduce their documented structural characteristics — distinct tag
// count, depth profile, element/text-node counts and structure/text ratio —
// which are the properties the experiments (Figures 8 and 12) actually
// depend on. Table 2 of the evaluation (internal/experiments) prints each
// generated document's characteristics beside the paper's.
package dataset

import (
	"fmt"

	"xmlac/internal/accessrule"
	"xmlac/internal/xmlstream"
)

// rng is a small deterministic pseudo-random generator (splitmix-style) so
// that generated documents are identical across runs and platforms.
type rng struct{ state uint64 }

func newRng(seed uint64) *rng { return &rng{state: seed ^ 0x9e3779b97f4a7c15} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

func (r *rng) pick(items []string) string { return items[r.intn(len(items))] }

func (r *rng) digits(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte('0' + r.intn(10))
	}
	return string(out)
}

func (r *rng) word(minLen, maxLen int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	n := minLen + r.intn(maxLen-minLen+1)
	out := make([]byte, n)
	for i := range out {
		out[i] = letters[r.intn(len(letters))]
	}
	return string(out)
}

func (r *rng) sentence(words int) string {
	out := ""
	for i := 0; i < words; i++ {
		if i > 0 {
			out += " "
		}
		out += r.word(2, 9)
	}
	return out
}

// Spec describes a dataset: its generator and the characteristics reported
// by Table 2 of the paper for the full-size original (printed beside the
// measured values by the Table 2 experiment).
type Spec struct {
	Name string
	// Generate builds the document at the given scale. Scale 1.0 aims at the
	// paper's size; smaller scales shrink the document proportionally so the
	// test suite stays fast.
	Generate func(scale float64) *xmlstream.Node
	// Paper-reported characteristics (Table 2).
	PaperSizeBytes    int64
	PaperTextBytes    int64
	PaperMaxDepth     int
	PaperAvgDepth     float64
	PaperDistinctTags int
	PaperTextNodes    int
	PaperElements     int
}

// Specs returns the four datasets in the order of Table 2.
func Specs() []Spec {
	return []Spec{
		{
			Name:              "WSU",
			Generate:          WSU,
			PaperSizeBytes:    1300 * 1024,
			PaperTextBytes:    210 * 1024,
			PaperMaxDepth:     4,
			PaperAvgDepth:     3.1,
			PaperDistinctTags: 20,
			PaperTextNodes:    48820,
			PaperElements:     74557,
		},
		{
			Name:              "Sigmod",
			Generate:          Sigmod,
			PaperSizeBytes:    350 * 1024,
			PaperTextBytes:    146 * 1024,
			PaperMaxDepth:     6,
			PaperAvgDepth:     5.1,
			PaperDistinctTags: 11,
			PaperTextNodes:    8383,
			PaperElements:     11526,
		},
		{
			Name:              "Treebank",
			Generate:          Treebank,
			PaperSizeBytes:    59 * 1024 * 1024,
			PaperTextBytes:    33 * 1024 * 1024,
			PaperMaxDepth:     36,
			PaperAvgDepth:     7.8,
			PaperDistinctTags: 250,
			PaperTextNodes:    1391845,
			PaperElements:     2437666,
		},
		{
			Name:              "Hospital",
			Generate:          Hospital,
			PaperSizeBytes:    3600 * 1024,
			PaperTextBytes:    2100 * 1024,
			PaperMaxDepth:     8,
			PaperAvgDepth:     6.8,
			PaperDistinctTags: 89,
			PaperTextNodes:    98310,
			PaperElements:     117795,
		},
	}
}

// SpecByName returns the named spec.
func SpecByName(name string) (Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// physicians used by the Hospital generator and the doctor profiles. The
// selection is skewed: DrA treats many patients (the "full-time doctor" of
// Figure 10) while DrH treats few (the "part-time doctor").
var physicians = []string{"DrA", "DrB", "DrC", "DrD", "DrE", "DrF", "DrG", "DrH"}

// physicianWeights gives the relative frequency of each physician in the
// generated acts.
var physicianWeights = []int{5, 3, 2, 2, 1, 1, 1, 1}

// Physicians returns the physician identifiers used by the Hospital
// generator, so experiments can build doctor policies that match actual
// folders.
func Physicians() []string { return append([]string(nil), physicians...) }

// FullTimePhysician and PartTimePhysician are the physicians used by the
// Figure 10 experiment as full-time and part-time doctor views.
func FullTimePhysician() string { return physicians[0] }

// PartTimePhysician returns the least frequent physician.
func PartTimePhysician() string { return physicians[len(physicians)-1] }

// pickPhysician draws a physician according to the weights.
func pickPhysician(r *rng) string {
	total := 0
	for _, w := range physicianWeights {
		total += w
	}
	n := r.intn(total)
	for i, w := range physicianWeights {
		if n < w {
			return physicians[i]
		}
		n -= w
	}
	return physicians[0]
}

// Hospital generates the medical document of Figure 1: a sequence of patient
// folders with administrative data, an optional protocol subscription,
// medical acts (with details) and analysis results grouped by protocol group
// G1..G10. Scale 1.0 produces roughly the 3.6 MB / 118k elements of Table 2.
func Hospital(scale float64) *xmlstream.Node {
	folders := int(800 * scale)
	if folders < 3 {
		folders = 3
	}
	return HospitalFolders(folders, 42)
}

// HospitalFolders generates a Hospital document with an explicit folder
// count and seed.
func HospitalFolders(folders int, seed uint64) *xmlstream.Node {
	r := newRng(seed)
	root := xmlstream.NewElement("Hospital")
	groups := accessrule.ResearcherGroups(10)
	symptoms := []string{"fever", "cough", "fatigue", "headache", "nausea", "dizziness", "back pain"}
	diagnostics := []string{"influenza", "hypertension", "diabetes", "asthma", "migraine", "fracture", "allergy"}
	for i := 0; i < folders; i++ {
		folder := xmlstream.NewElement("Folder",
			xmlstream.NewElement("Admin",
				xmlstream.Elem("SSN", r.digits(13)),
				xmlstream.Elem("Fname", r.word(4, 9)),
				xmlstream.Elem("Lname", r.word(5, 11)),
				xmlstream.Elem("Age", fmt.Sprintf("%d", 18+r.intn(80))),
				xmlstream.Elem("Address", r.sentence(4)),
				xmlstream.Elem("Phone", r.digits(10)),
			),
		)
		// Most patients subscribe to a test protocol; the researcher rules
		// only grant access to folders carrying one. The subscribed group is
		// remembered so the folder's lab results include the corresponding
		// panel (a patient enrolled in protocol G3 gets G3 measurements).
		protocolGroup := ""
		if r.intn(10) < 7 {
			protocolGroup = r.pick(groups)
			folder.Append(xmlstream.NewElement("Protocol",
				xmlstream.Elem("Id", "PR"+r.digits(6)),
				xmlstream.Elem("Type", protocolGroup),
				xmlstream.Elem("Date", fmt.Sprintf("2004-%02d-%02d", 1+r.intn(12), 1+r.intn(28))),
				xmlstream.Elem("RPhys", pickPhysician(r)),
			))
		}
		// Medical acts are the bulk of the folder: several acts with
		// substantial textual details (the data the researcher never sees
		// and the skip index lets the evaluator jump over).
		medActs := xmlstream.NewElement("MedActs")
		acts := 2 + r.intn(5)
		for a := 0; a < acts; a++ {
			medActs.Append(xmlstream.NewElement("Act",
				xmlstream.Elem("Id", "ACT"+r.digits(7)),
				xmlstream.Elem("Date", fmt.Sprintf("2004-%02d-%02d", 1+r.intn(12), 1+r.intn(28))),
				xmlstream.Elem("RPhys", pickPhysician(r)),
				// Details carry the bulk of a folder: the clinical narrative
				// only the responsible physician may read. Their size is what
				// makes the Skip index pay off — a denied Details subtree is
				// a contiguous run the SOE never transfers nor decrypts.
				xmlstream.NewElement("Details",
					xmlstream.Elem("VitalSigns", r.sentence(8)),
					xmlstream.Elem("Symptoms", r.pick(symptoms)+", "+r.pick(symptoms)+", "+r.sentence(5)),
					xmlstream.Elem("Anamnesis", r.sentence(18)),
					xmlstream.Elem("Diagnostic", r.pick(diagnostics)+" "+r.sentence(3)),
					xmlstream.Elem("Treatment", r.sentence(14)),
					xmlstream.Elem("Comments", r.sentence(26)),
				),
			))
		}
		folder.Append(medActs)
		// Laboratory results grouped by protocol group, with a full panel of
		// measurements per group.
		analysis := xmlstream.NewElement("Analysis")
		labs := 1 + r.intn(2)
		for l := 0; l < labs; l++ {
			lab := xmlstream.NewElement("LabResults",
				xmlstream.Elem("Date", fmt.Sprintf("2004-%02d-%02d", 1+r.intn(12), 1+r.intn(28))),
			)
			ngroups := 2 + r.intn(4)
			for g := 0; g < ngroups; g++ {
				group := r.pick(groups)
				if g == 0 && protocolGroup != "" {
					group = protocolGroup
				}
				lab.Append(xmlstream.NewElement(group,
					xmlstream.Elem("Cholesterol", fmt.Sprintf("%d", 120+r.intn(220))),
					xmlstream.Elem("Triglycerides", fmt.Sprintf("%d", 50+r.intn(300))),
					xmlstream.Elem("HDL", fmt.Sprintf("%d", 30+r.intn(70))),
					xmlstream.Elem("LDL", fmt.Sprintf("%d", 60+r.intn(150))),
					xmlstream.Elem("Glucose", fmt.Sprintf("%d", 60+r.intn(140))),
					xmlstream.Elem("Hemoglobin", fmt.Sprintf("%d.%d", 10+r.intn(8), r.intn(10))),
					xmlstream.Elem("Observation", r.sentence(6)),
					xmlstream.Elem("RPhys", pickPhysician(r)),
				))
			}
			analysis.Append(lab)
		}
		folder.Append(analysis)
		root.Append(folder)
	}
	return root
}

// WSU generates the stand-in for the WSU university course document: a very
// flat document (max depth 4) made of a large number of small course records
// with short text values, reproducing its high structure/text ratio.
func WSU(scale float64) *xmlstream.Node {
	courses := int(4500 * scale)
	if courses < 5 {
		courses = 5
	}
	r := newRng(7)
	root := xmlstream.NewElement("root")
	fields := []string{"footnote", "sln", "limit", "enrolled", "instructor", "credit", "crs", "sect", "title", "days"}
	for i := 0; i < courses; i++ {
		course := xmlstream.NewElement("course")
		place := xmlstream.NewElement("place",
			xmlstream.Elem("bldg", r.word(2, 4)),
			xmlstream.Elem("room", r.digits(3)),
		)
		times := xmlstream.NewElement("times",
			xmlstream.Elem("start", fmt.Sprintf("%02d:30", 7+r.intn(12))),
			xmlstream.Elem("end", fmt.Sprintf("%02d:20", 8+r.intn(12))),
		)
		course.Append(place, times)
		for _, f := range fields {
			course.Append(xmlstream.Elem(f, r.word(1, 6)))
		}
		root.Append(course)
	}
	return root
}

// Sigmod generates the stand-in for the Sigmod Record article index:
// medium-depth, well-structured, few distinct tags.
func Sigmod(scale float64) *xmlstream.Node {
	issues := int(65 * scale)
	if issues < 2 {
		issues = 2
	}
	r := newRng(11)
	root := xmlstream.NewElement("SigmodRecord")
	for i := 0; i < issues; i++ {
		issue := xmlstream.NewElement("issue",
			xmlstream.Elem("volume", fmt.Sprintf("%d", 11+i/4)),
			xmlstream.Elem("number", fmt.Sprintf("%d", 1+i%4)),
		)
		articles := xmlstream.NewElement("articles")
		n := 8 + r.intn(20)
		for a := 0; a < n; a++ {
			article := xmlstream.NewElement("article",
				xmlstream.Elem("title", r.sentence(6)),
				xmlstream.Elem("initPage", fmt.Sprintf("%d", 1+r.intn(90))),
				xmlstream.Elem("endPage", fmt.Sprintf("%d", 91+r.intn(40))),
			)
			authors := xmlstream.NewElement("authors")
			for au := 0; au < 1+r.intn(4); au++ {
				authors.Append(xmlstream.Elem("author", r.word(4, 8)+" "+r.word(5, 10)))
			}
			article.Append(authors)
			articles.Append(article)
		}
		issue.Append(articles)
		root.Append(issue)
	}
	return root
}

// Treebank generates the stand-in for the Treebank linguistic corpus: deeply
// recursive parse trees with a large tag vocabulary (~250 distinct tags) and
// most of the bytes in text leaves.
func Treebank(scale float64) *xmlstream.Node {
	sentences := int(24000 * scale)
	if sentences < 10 {
		sentences = 10
	}
	r := newRng(13)
	// Build a 250-tag vocabulary of part-of-speech-like names.
	tags := make([]string, 0, 250)
	bases := []string{"NP", "VP", "PP", "ADJP", "ADVP", "SBAR", "WHNP", "PRT", "INTJ", "CONJP",
		"NN", "NNS", "NNP", "VB", "VBD", "VBG", "VBN", "VBP", "VBZ", "JJ", "JJR", "JJS", "RB", "DT", "IN"}
	for _, b := range bases {
		tags = append(tags, b)
	}
	for i := 0; len(tags) < 250; i++ {
		tags = append(tags, fmt.Sprintf("%s_%d", bases[i%len(bases)], i/len(bases)+1))
	}
	root := xmlstream.NewElement("FILE")
	leaf := func() *xmlstream.Node {
		n := xmlstream.NewElement(tags[r.intn(len(tags))])
		n.Append(xmlstream.NewText(r.sentence(1 + r.intn(3))))
		return n
	}
	// Ordinary parse trees: bounded depth, moderate branching.
	var build func(depth, maxDepth int) *xmlstream.Node
	build = func(depth, maxDepth int) *xmlstream.Node {
		n := xmlstream.NewElement(tags[r.intn(len(tags))])
		if depth >= maxDepth || r.intn(3) == 0 {
			n.Append(xmlstream.NewText(r.sentence(1 + r.intn(3))))
			return n
		}
		kids := 1 + r.intn(3)
		for i := 0; i < kids; i++ {
			n.Append(build(depth+1, maxDepth))
		}
		return n
	}
	// Deep chains: Treebank's maximum depth of 36 comes from long embedded
	// clauses; model them as a spine with occasional leaf siblings so the
	// rare deep sentences do not dominate the element count.
	chain := func(maxDepth int) *xmlstream.Node {
		top := xmlstream.NewElement(tags[r.intn(len(tags))])
		cur := top
		for d := 4; d < maxDepth; d++ {
			next := xmlstream.NewElement(tags[r.intn(len(tags))])
			cur.Append(next)
			if r.intn(2) == 0 {
				cur.Append(leaf())
			}
			cur = next
		}
		cur.Append(xmlstream.NewText(r.sentence(2)))
		return top
	}
	for s := 0; s < sentences; s++ {
		// Depth varies widely; a few sentences are very deep (the paper
		// reports a maximum depth of 36 with an average of 7.8).
		sentence := xmlstream.NewElement("S")
		if r.intn(50) == 0 {
			sentence.Append(chain(20 + r.intn(15)))
		} else {
			sentence.Append(build(3, 4+r.intn(8)))
		}
		root.Append(xmlstream.NewElement("EMPTY", sentence))
	}
	return root
}

// RandomPolicy generates a random access-control policy over the tag
// vocabulary of a document, "including // and predicates" as used by the
// Figure 12 experiment on the real datasets. The policy mixes positive and
// negative rules; values for predicates are drawn from the document's own
// text values so a realistic fraction of predicates is satisfiable.
func RandomPolicy(doc *xmlstream.Node, rules int, seed uint64) *accessrule.Policy {
	r := newRng(seed)
	tags := doc.DistinctTags()
	// Collect a sample of text values to build satisfiable predicates.
	var values []string
	doc.Walk(func(n *xmlstream.Node) bool {
		if n.Kind == xmlstream.TextNode && len(values) < 200 && len(n.Value) > 0 && len(n.Value) < 20 {
			values = append(values, n.Value)
		}
		return len(values) < 200
	})
	if len(values) == 0 {
		values = []string{"1"}
	}
	// Count tag frequencies so the opening positive rule targets a tag that
	// actually selects a substantial part of the document (the paper's
	// Sigmod policy, for instance, "was simple and not much selective: 50%
	// of the document was returned").
	freq := map[string]int{}
	doc.Walk(func(n *xmlstream.Node) bool {
		if n.Kind == xmlstream.ElementNode {
			freq[n.Name]++
		}
		return true
	})
	best := tags[0]
	for _, t := range tags {
		if freq[t] > freq[best] && t != doc.Name {
			best = t
		}
	}
	p := accessrule.NewPolicy("random")
	p.Add(accessrule.MustRule("RND0", "+", "//"+best))
	for i := 1; i < rules; i++ {
		sign := "+"
		if r.intn(3) == 0 {
			sign = "-"
		}
		steps := 1 + r.intn(3)
		expr := ""
		for s := 0; s < steps; s++ {
			if r.intn(2) == 0 {
				expr += "//"
			} else {
				expr += "/"
			}
			if s == 0 {
				expr = "//"
			}
			tag := r.pick(tags)
			expr += tag
			if r.intn(3) == 0 {
				predTag := r.pick(tags)
				switch r.intn(3) {
				case 0:
					expr += "[" + predTag + "]"
				case 1:
					expr += fmt.Sprintf("[%s='%s']", predTag, r.pick(values))
				default:
					expr += fmt.Sprintf("[//%s!='%s']", predTag, r.pick(values))
				}
			}
		}
		rule, err := accessrule.ParseRule(fmt.Sprintf("RND%d", i+1), sign, expr)
		if err != nil {
			continue
		}
		p.Add(rule)
	}
	if len(p.PositiveRules()) == 0 {
		p.Add(accessrule.MustRule("RNDP", "+", "//"+r.pick(tags)))
	}
	return p
}
