package storage

import (
	"encoding/binary"
	"fmt"
)

// A Record is one durable mutation in the write-ahead log. The storage layer
// treats the Meta and Blob payloads as opaque bytes — the server composes
// them (a registration carries the full marshalled container as a full-blob
// record, a PATCH carries the binary update delta plus the dirty byte
// ranges) and interprets them again on replay. Keeping the engine blind to
// the payload keeps the trust layering clean: nothing in internal/storage
// ever handles a key or plaintext.
type Record struct {
	// Type says how the server interprets the payloads on replay.
	Type RecordType
	// Doc is the document id the record mutates.
	Doc string
	// Meta is the small structured part of the payload (registration
	// metadata, the marshalled update delta).
	Meta []byte
	// Blob is the bulk part: the full container for registrations, the new
	// container prefix plus dirty chunk bytes for patches.
	Blob []byte
}

// RecordType names the WAL record kinds.
type RecordType uint8

const (
	// RecordRegister installs a document: Blob is the full marshalled
	// protected container (registration and re-registration alike).
	RecordRegister RecordType = 1
	// RecordPatch advances a document one version: Meta is the marshalled
	// binary UpdateDelta, Blob the dirty byte ranges of the new container.
	RecordPatch RecordType = 2
	// RecordDelete removes a document and everything attached to it.
	RecordDelete RecordType = 3
)

// recordTypeValid reports whether t is a known record type.
func recordTypeValid(t RecordType) bool {
	return t >= RecordRegister && t <= RecordDelete
}

// Payload size bounds enforced by the decoder: a corrupted length field must
// fail parsing instead of driving a giant allocation.
const (
	maxNameLen = 1 << 10 // document ids
	maxMetaLen = 1 << 24 // 16 MiB of structured metadata
	maxBlobLen = 1 << 30 // 1 GiB of container bytes
)

// EncodeRecord serializes a record to the byte payload framed into the WAL:
//
//	type u8 | docLen u16 | doc | metaLen u32 | meta | blobLen u32 | blob
//
// All integers little-endian. The frame around it (length prefix + CRC) is
// the WAL's concern; see wal.go.
func EncodeRecord(r Record) ([]byte, error) {
	if !recordTypeValid(r.Type) {
		return nil, fmt.Errorf("storage: encoding unknown record type %d", r.Type)
	}
	if len(r.Doc) == 0 || len(r.Doc) > maxNameLen {
		return nil, fmt.Errorf("storage: record document id length %d out of range", len(r.Doc))
	}
	if len(r.Meta) > maxMetaLen {
		return nil, fmt.Errorf("storage: record metadata length %d out of range", len(r.Meta))
	}
	if len(r.Blob) > maxBlobLen {
		return nil, fmt.Errorf("storage: record blob length %d out of range", len(r.Blob))
	}
	out := make([]byte, 0, 1+2+len(r.Doc)+4+len(r.Meta)+4+len(r.Blob))
	out = append(out, byte(r.Type))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(r.Doc)))
	out = append(out, r.Doc...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(r.Meta)))
	out = append(out, r.Meta...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(r.Blob)))
	out = append(out, r.Blob...)
	return out, nil
}

// DecodeRecord parses one WAL record payload, validating every length field
// against the encoder's bounds and rejecting trailing garbage. It never
// aliases data: the returned record owns its bytes, so callers may recycle
// the input buffer.
func DecodeRecord(data []byte) (Record, error) {
	var r Record
	pos := 0
	need := func(n int) ([]byte, error) {
		if n < 0 || len(data)-pos < n {
			return nil, fmt.Errorf("storage: truncated record (%d bytes short at offset %d)", n-(len(data)-pos), pos)
		}
		b := data[pos : pos+n]
		pos += n
		return b, nil
	}
	tb, err := need(1)
	if err != nil {
		return r, err
	}
	r.Type = RecordType(tb[0])
	if !recordTypeValid(r.Type) {
		return r, fmt.Errorf("storage: unknown record type %d", tb[0])
	}
	readBytes := func(what string, max int) ([]byte, error) {
		lb, err := need(4)
		if err != nil {
			return nil, err
		}
		n := int(binary.LittleEndian.Uint32(lb))
		if n > max {
			return nil, fmt.Errorf("storage: record %s length %d out of range", what, n)
		}
		b, err := need(n)
		if err != nil {
			return nil, err
		}
		return append([]byte(nil), b...), nil
	}
	lb, err := need(2)
	if err != nil {
		return r, err
	}
	n := int(binary.LittleEndian.Uint16(lb))
	if n == 0 || n > maxNameLen {
		return r, fmt.Errorf("storage: record document id length %d out of range", n)
	}
	db, err := need(n)
	if err != nil {
		return r, err
	}
	r.Doc = string(db)
	if r.Meta, err = readBytes("metadata", maxMetaLen); err != nil {
		return r, err
	}
	if r.Blob, err = readBytes("blob", maxBlobLen); err != nil {
		return r, err
	}
	if pos != len(data) {
		return r, fmt.Errorf("storage: %d trailing bytes after record", len(data)-pos)
	}
	return r, nil
}
