package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlac"
)

func TestProtectRunRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "doc.xml")
	out := filepath.Join(dir, "doc.xsec")
	xml := `<library><book><title>Accessible</title></book><ledger><entry>secret</entry></ledger></library>`
	if err := os.WriteFile(in, []byte(xml), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(in, out, "pw", "ecb-mht"); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := xmlac.UnmarshalProtected(blob)
	if err != nil {
		t.Fatal(err)
	}
	policy := xmlac.Policy{Subject: "reader", Rules: []xmlac.Rule{{Sign: "+", Object: "//book"}}}
	cp, err := policy.Compile()
	if err != nil {
		t.Fatal(err)
	}
	view, _, err := prot.View(context.Background(), xmlac.DeriveKey("pw"), cp, xmlac.ViewOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := view.XML(); got == "" || !strings.Contains(got, "Accessible") || strings.Contains(got, "secret") {
		t.Fatalf("unexpected view: %s", got)
	}
}

func TestProtectRunErrors(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(in, []byte(`<a><b>x</b></a>`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(in, filepath.Join(dir, "o"), "pw", "rot13"); err == nil {
		t.Fatal("unknown scheme must fail")
	}
	if err := run(filepath.Join(dir, "missing.xml"), filepath.Join(dir, "o"), "pw", "ecb"); err == nil {
		t.Fatal("missing input must fail")
	}
	bad := filepath.Join(dir, "bad.xml")
	if err := os.WriteFile(bad, []byte("<broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(bad, filepath.Join(dir, "o"), "pw", "ecb"); err == nil {
		t.Fatal("malformed input must fail")
	}
}
