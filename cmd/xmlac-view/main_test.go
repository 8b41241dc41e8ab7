package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/server"
	"xmlac/internal/xmlstream"
)

// sampleXML is a one-folder hospital document every built-in profile sees
// part of.
const sampleXML = `<Hospital><Folder><Protocol><Type>G3</Type></Protocol>` +
	`<Admin><Fname>alice</Fname><Age>40</Age></Admin>` +
	`<MedActs><Act><RPhys>DrA</RPhys><Details>d1</Details></Act><Act><RPhys>DrB</RPhys><Details>d2</Details></Act></MedActs>` +
	`<Analysis><LabResults><G3><Cholesterol>200</Cholesterol></G3></LabResults></Analysis></Folder></Hospital>`

// checkView fails unless cp's view of sampleXML equals want's, evaluated
// over the plaintext by the reference evaluator.
func checkView(t *testing.T, name string, cp *xmlac.CompiledPolicy, want xmlac.Policy) {
	t.Helper()
	doc, err := xmlac.ParseDocumentString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	key := xmlac.DeriveKey("pw")
	prot, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref, err := xmlac.EvaluateDocument(doc, want, xmlac.ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.XML() != ref.XML() {
		t.Errorf("%s: view %s, want %s", name, got.XML(), ref.XML())
	}
}

func TestBuildPolicyProfiles(t *testing.T) {
	cases := []struct {
		profile string
		want    xmlac.Policy
		wantErr bool
	}{
		{"secretary", xmlac.SecretaryPolicy(), false},
		{"doctor:DrA", xmlac.DoctorPolicy("DrA"), false},
		{"doctor", xmlac.Policy{}, true},
		{"researcher", xmlac.ResearcherPolicy(), false},
		{"researcher:G1,G2", xmlac.ResearcherPolicy("G1", "G2"), false},
		{"astronaut", xmlac.Policy{}, true},
	}
	for _, c := range cases {
		cp, err := buildPolicy(c.profile, "", "user")
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: expected error", c.profile)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.profile, err)
			continue
		}
		checkView(t, c.profile, cp, c.want)
	}
}

func TestBuildPolicyFromRulesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rules.txt")
	content := `# medical team policy
+ //Folder/Admin
+ //MedActs[//RPhys = USER]
- //Act[RPhys != USER]/Details

`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := buildPolicy("", path, "DrA")
	if err != nil {
		t.Fatal(err)
	}
	checkView(t, "rules file", cp, xmlac.Policy{Subject: "DrA", Rules: []xmlac.Rule{
		{Sign: "+", Object: "//Folder/Admin"},
		{Sign: "+", Object: "//MedActs[//RPhys = USER]"},
		{Sign: "-", Object: "//Act[RPhys != USER]/Details"},
	}})
	// Malformed rules file.
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("justoneword\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := buildPolicy("", bad, "u"); err == nil {
		t.Fatal("malformed rules file must fail")
	}
	// Invalid XPath in the file.
	invalid := filepath.Join(dir, "invalid.txt")
	if err := os.WriteFile(invalid, []byte("+ not-a-path\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := buildPolicy("", invalid, "u"); err == nil {
		t.Fatal("invalid xpath must fail")
	}
	if _, err := buildPolicy("", filepath.Join(dir, "missing.txt"), "u"); err == nil {
		t.Fatal("missing file must fail")
	}
}

func TestViewEndToEnd(t *testing.T) {
	dir := t.TempDir()
	// Protect a small document with the library, then view it with the
	// command's run function.
	doc, err := xmlac.ParseDocumentString(
		`<Hospital><Folder><Admin><Fname>alice</Fname></Admin><MedActs><Act><RPhys>DrA</RPhys></Act></MedActs></Folder></Hospital>`)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := xmlac.Protect(doc, xmlac.DeriveKey("pw"), xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	protected := filepath.Join(dir, "doc.xsec")
	if err := os.WriteFile(protected, prot.Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "view.xml")
	if err := run(config{in: protected, passphrase: "pw", profile: "secretary", out: out}, io.Discard); err != nil {
		t.Fatal(err)
	}
	view, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(view), "alice") || strings.Contains(string(view), "DrA") {
		t.Fatalf("unexpected view: %s", view)
	}
	// Wrong passphrase fails the integrity check.
	if err := run(config{in: protected, passphrase: "wrong", profile: "secretary", out: out}, io.Discard); err == nil {
		t.Fatal("wrong passphrase must fail")
	}
}

// startServer registers a demo-style hospital document (default passphrase
// convention, like xmlac-serve -demo) and returns its document URL.
func startServer(t *testing.T) string {
	t.Helper()
	srv := server.New(server.Options{})
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(8, 5), false)
	if _, err := srv.Store().RegisterXML("hospital", xml, "", xmlac.SchemeECBMHT); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL + "/docs/hospital"
}

// TestRunProfileAgainstServer is the end-to-end smoke test: the client
// fetches a doctor view from a live server using the demo key convention and
// writes it to a file.
func TestRunProfileAgainstServer(t *testing.T) {
	docURL := startServer(t)
	out := filepath.Join(t.TempDir(), "view.xml")
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	traceJSONL := filepath.Join(t.TempDir(), "spans.jsonl")
	c := config{url: docURL, profile: "doctor:DrA", out: out, traceOut: traceOut, traceJSONL: traceJSONL, metrics: true}
	if err := run(c, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	view := string(data)
	if !strings.Contains(view, "<Admin>") || !strings.Contains(view, "DrA") {
		t.Fatalf("doctor view misses expected content: %.300s", view)
	}
	if strings.Contains(view, "<SSN>") == false {
		t.Fatalf("doctor view should include admin data: %.300s", view)
	}
	trace, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(trace), "[") || !strings.Contains(string(trace), `"phase:`) {
		t.Fatalf("-trace-out did not produce a Chrome trace with phase spans: %.200s", string(trace))
	}
	if !strings.Contains(string(trace), `"client SOE"`) || !strings.Contains(string(trace), `"untrusted server"`) {
		t.Fatalf("-trace-out trace misses a merged lane: %.200s", string(trace))
	}
	spans, err := os.ReadFile(traceJSONL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(spans), `"server.fetch"`) {
		t.Fatalf("-trace-jsonl misses server spans: %.200s", string(spans))
	}
}

// TestRunRulesFile exercises the rules-file path and the query flag.
func TestRunRulesFile(t *testing.T) {
	docURL := startServer(t)
	rules := filepath.Join(t.TempDir(), "rules.txt")
	if err := os.WriteFile(rules, []byte("# admin only\n+ //Admin\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "view.xml")
	c := config{url: docURL, rulesFile: rules, subject: "sec", out: out}
	if err := run(c, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<Admin>") || strings.Contains(string(data), "<Details>") {
		t.Fatalf("rules-file view wrong: %.300s", string(data))
	}
	// A query no folder satisfies leaves an empty view, marked as such.
	c.query = "//Folder[Admin/Age > 1000]"
	if err := run(c, io.Discard); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(out); err != nil {
		t.Fatal(err)
	}
	if string(data) != "<!-- empty authorized view -->\n" {
		t.Fatalf("empty query view: %q", data)
	}
}

// TestRunErrors: flag misuse, a bad URL and a bad profile fail cleanly.
func TestRunErrors(t *testing.T) {
	for name, c := range map[string]config{
		"both sources":         {in: "doc.xsec", url: "http://h:1/docs/d", passphrase: "pw", profile: "secretary"},
		"no source":            {passphrase: "pw", profile: "secretary"},
		"-in without password": {in: "doc.xsec", profile: "secretary"},
		"no profile, no rules": {url: "http://h:1/docs/d"},
	} {
		if err := run(c, io.Discard); !errors.Is(err, errUsage) {
			t.Errorf("%s: err = %v, want a usage error", name, err)
		}
	}
	if err := run(config{url: "http://127.0.0.1:1/docs/none", passphrase: "x", profile: "secretary"}, io.Discard); err == nil {
		t.Fatal("unreachable server must fail")
	}
	if _, err := buildPolicy("astronaut", "", "user"); err == nil {
		t.Fatal("unknown profile must fail")
	}
	if _, err := buildPolicy("doctor", "", "user"); err == nil {
		t.Fatal("doctor without physician must fail")
	}
}

func TestDocID(t *testing.T) {
	for in, want := range map[string]string{
		"http://h:1/docs/hospital":  "hospital",
		"http://h:1/docs/hospital/": "hospital",
		"hospital":                  "hospital",
	} {
		if got := docID(in); got != want {
			t.Errorf("docID(%q) = %q, want %q", in, got, want)
		}
	}
}

// protectedFile writes the hospital document of startServer, protected
// under the passphrase "pw", to a file and returns its path.
func protectedFile(t *testing.T) string {
	t.Helper()
	doc, err := xmlac.ParseDocumentString(xmlstream.SerializeTree(dataset.HospitalFolders(8, 5), false))
	if err != nil {
		t.Fatal(err)
	}
	prot, err := xmlac.Protect(doc, xmlac.DeriveKey("pw"), xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.xsec")
	if err := os.WriteFile(path, prot.Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunLocalTrace: a traced local view writes the client lane, with one
// view:<subject> root span, and no server lane.
func TestRunLocalTrace(t *testing.T) {
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "trace.json")
	traceJSONL := filepath.Join(dir, "spans.jsonl")
	c := config{in: protectedFile(t), passphrase: "pw", profile: "secretary",
		out: filepath.Join(dir, "view.xml"), traceOut: traceOut, traceJSONL: traceJSONL}
	if err := run(c, io.Discard); err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), `"client SOE"`) || strings.Contains(string(trace), `"untrusted server"`) {
		t.Fatalf("-trace-out of a local view: want the client lane only: %.300s", trace)
	}
	f, err := os.Open(traceJSONL)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := xmlac.ParseTraceJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, sp := range spans {
		if sp.Parent == "" {
			roots++
			if sp.Name != "view:secretary" {
				t.Errorf("root span %q, want view:secretary", sp.Name)
			}
		}
		if strings.HasPrefix(sp.Name, "server.") {
			t.Errorf("local view traced a server span %q", sp.Name)
		}
	}
	if roots != 1 {
		t.Errorf("%d root spans, want 1", roots)
	}
}

// TestRunMetricsWireLine: -metrics prints the SOE line for both sources and
// the wire line only for a remote view.
func TestRunMetricsWireLine(t *testing.T) {
	dir := t.TempDir()
	for name, c := range map[string]config{
		"local":  {in: protectedFile(t), passphrase: "pw"},
		"remote": {url: startServer(t)},
	} {
		c.profile, c.metrics, c.out = "secretary", true, filepath.Join(dir, name+".xml")
		var stderr bytes.Buffer
		if err := run(c, &stderr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(stderr.String(), "est. smart card time") {
			t.Errorf("%s: no SOE line in %q", name, stderr.String())
		}
		if got, want := strings.Contains(stderr.String(), "of a full download"), name == "remote"; got != want {
			t.Errorf("%s: wire line printed = %v, want %v: %q", name, got, want, stderr.String())
		}
	}
}
