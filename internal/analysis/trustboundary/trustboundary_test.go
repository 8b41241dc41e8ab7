package trustboundary_test

import (
	"testing"

	"xmlac/internal/analysis/analysistest"
	"xmlac/internal/analysis/trustboundary"
	"xmlac/internal/analysis/vetcfg"
)

// testConfig draws the boundary around the vettest mimic packages.
func testConfig() vetcfg.Trustboundary {
	return vetcfg.Trustboundary{
		Packages:    []string{"vettest/server"},
		DenyImports: []string{"vettest/secure"},
		DenySymbols: []string{
			"vettest/api.Key",
			"vettest/api.DeriveKey",
			"vettest/api.Vault.Unseal",
			"vettest/api.Policy",
			"vettest/api.ViewOptions",
		},
	}
}

func TestSeededViolations(t *testing.T) {
	analysistest.Run(t, trustboundary.New(testConfig()), "testdata", "server")
}

func TestCleanInsideBoundary(t *testing.T) {
	analysistest.Run(t, trustboundary.New(testConfig()), "testdata", "server/ok")
}

func TestClientSideIsExempt(t *testing.T) {
	analysistest.Run(t, trustboundary.New(testConfig()), "testdata", "client")
}
