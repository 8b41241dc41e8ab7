package main

import (
	"encoding/json"
	"os"

	"xmlac"
)

// costEntry mirrors one ranked bucket of the server's /debug/costs JSON.
// The phase object carries xmlac.PhaseBreakdown's field names verbatim.
type costEntry struct {
	Subject          string               `json:"subject"`
	Policy           string               `json:"policy"`
	Views            int64                `json:"views"`
	Errors           int64                `json:"errors"`
	WireBytes        int64                `json:"wire_bytes"`
	BytesTransferred int64                `json:"bytes_transferred"`
	BytesDecrypted   int64                `json:"bytes_decrypted"`
	BytesSkipped     int64                `json:"bytes_skipped"`
	Phases           xmlac.PhaseBreakdown `json:"phases"`
}

// costSnapshot mirrors the /debug/costs response shape.
type costSnapshot struct {
	Entries   []costEntry `json:"entries"`
	Other     *costEntry  `json:"other"`
	Distinct  int         `json:"distinct"`
	Collapsed int64       `json:"collapsed"`
}

func readCosts(path string) (*costSnapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap costSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
