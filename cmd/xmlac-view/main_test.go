package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlac"
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
	if err := run(protected, "pw", "secretary", "", "user", "", out, false, false); err != nil {
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
	if err := run(protected, "wrong", "secretary", "", "user", "", out, false, false); err == nil {
		t.Fatal("wrong passphrase must fail")
	}
}
