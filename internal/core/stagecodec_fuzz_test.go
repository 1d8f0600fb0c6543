package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/sharding"
)

// f32sBitEqual compares float slices bit for bit: the codecs must
// preserve payloads exactly, including NaN bit patterns, which ==/
// DeepEqual would reject.
func f32sBitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// Round-trip fuzzers for the control-plane codecs: any byte string
// either fails to decode, or decodes to a message whose re-encoding
// decodes to the same message (decode∘encode is the identity on the image
// of decode). Panics and unbounded allocations are the bugs these hunt —
// the control plane reads these payloads off the wire from peers.

func FuzzReadRequestRoundTrip(f *testing.F) {
	f.Add(EncodeReadRequest(&ReadRequest{TableID: 9, PartIndex: 2, RowStart: 128, RowCount: 64}))
	f.Add([]byte("short"))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeReadRequest(b)
		if err != nil {
			return
		}
		again, err := DecodeReadRequest(EncodeReadRequest(m))
		if err != nil || *again != *m {
			t.Fatalf("round trip: %+v -> %+v (err %v)", m, again, err)
		}
	})
}

func FuzzReadResponseRoundTrip(f *testing.F) {
	f.Add(EncodeReadResponse(&ReadResponse{Rows: 10, Dim: 4, Enc: TierEncFP32, Data: []float32{1, 2, 3, 4}}))
	f.Add(EncodeReadResponse(&ReadResponse{Rows: 10, Dim: 4, Enc: TierEncFP16, Raw: []byte{1, 2, 3, 4, 5, 6, 7, 8}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeReadResponse(b)
		if err != nil {
			return
		}
		again, err := DecodeReadResponse(EncodeReadResponse(m))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Rows != m.Rows || again.Dim != m.Dim || again.Enc != m.Enc ||
			!f32sBitEqual(again.Data, m.Data) || !bytes.Equal(again.Raw, m.Raw) {
			t.Fatalf("round trip changed message")
		}
	})
}

func FuzzStageBeginRoundTrip(f *testing.F) {
	f.Add(EncodeStageBegin(&StageBegin{TableID: 3, PartIndex: 1, Rows: 100, Dim: 16, Enc: TierEncInt8}))
	f.Add(EncodeStageBegin(&StageBegin{Session: 7, Rows: 1, Dim: 1, Clone: true}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeStageBegin(b)
		if err != nil {
			return
		}
		again, err := DecodeStageBegin(EncodeStageBegin(m))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if *again != *m {
			t.Fatalf("round trip changed message: %+v != %+v", again, m)
		}
	})
}

func FuzzStageRowsRoundTrip(f *testing.F) {
	f.Add(EncodeStageRows(&StageRows{Session: 1, TableID: 1, RowStart: 8, Dim: 2, Enc: TierEncFP32, Data: []float32{1, 2, 3, 4}}))
	f.Add(EncodeStageRows(&StageRows{Session: 2, TableID: 1, RowStart: 8, Dim: 2, Enc: TierEncInt8, Raw: []byte{1, 2, 3, 4, 5, 6}}))
	f.Add(EncodeStageRows(&StageRows{Dim: 3, Enc: TierEncInt4, Raw: make([]byte, 12)}))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeStageRows(b)
		if err != nil {
			return
		}
		// Decode enforces the shape invariants; they must hold on the image.
		if m.Enc == TierEncFP32 && m.Dim > 0 && int32(len(m.Data))%m.Dim != 0 {
			t.Fatalf("decoded fp32 rows violate alignment: %d values, dim %d", len(m.Data), m.Dim)
		}
		again, err := DecodeStageRows(EncodeStageRows(m))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Session != m.Session || again.TableID != m.TableID || again.PartIndex != m.PartIndex ||
			again.RowStart != m.RowStart || again.Dim != m.Dim || again.Enc != m.Enc ||
			!f32sBitEqual(again.Data, m.Data) || !bytes.Equal(again.Raw, m.Raw) {
			t.Fatalf("round trip changed message")
		}
	})
}

func FuzzStageRefRoundTrip(f *testing.F) {
	f.Add(EncodeStageRef(&StageRef{Session: 42}))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeStageRef(b)
		if err != nil {
			return
		}
		again, err := DecodeStageRef(EncodeStageRef(m))
		if err != nil || *again != *m {
			t.Fatalf("round trip: %+v -> %+v (err %v)", m, again, err)
		}
	})
}

func FuzzStageCommitRoundTrip(f *testing.F) {
	f.Add(EncodeStageCommit(&StageCommit{Session: 3, Version: 9}))
	f.Add(EncodeStageCommit(&StageCommit{Session: 1}))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeStageCommit(b)
		if err != nil {
			return
		}
		again, err := DecodeStageCommit(EncodeStageCommit(m))
		if err != nil || *again != *m {
			t.Fatalf("round trip: %+v -> %+v (err %v)", m, again, err)
		}
	})
}

func FuzzStageCommitResponseRoundTrip(f *testing.F) {
	f.Add(EncodeStageCommitResponse(&StageCommitResponse{Epoch: 12, Version: 9, Tables: 3}))
	f.Add(EncodeStageCommitResponse(&StageCommitResponse{Tables: -1}))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeStageCommitResponse(b)
		if err != nil {
			return
		}
		again, err := DecodeStageCommitResponse(EncodeStageCommitResponse(m))
		if err != nil || *again != *m {
			t.Fatalf("round trip: %+v -> %+v (err %v)", m, again, err)
		}
	})
}

func FuzzMigrateForwardRoundTrip(f *testing.F) {
	f.Add(EncodeMigrateForward(&MigrateForward{TableID: 7, PartIndex: 1, Service: "sparse2", Addr: "127.0.0.1:7102", Release: true}))
	f.Add(EncodeMigrateForward(&MigrateForward{Service: "", Addr: ""}))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMigrateForward(b)
		if err != nil {
			return
		}
		again, err := DecodeMigrateForward(EncodeMigrateForward(m))
		if err != nil || *again != *m {
			t.Fatalf("round trip: %+v -> %+v (err %v)", m, again, err)
		}
	})
}

func FuzzLoadSummaryRoundTrip(f *testing.F) {
	s := sharding.NewLoadSummary()
	s.Add(sharding.TableLoadKey{TableID: 1}, sharding.TableLoad{Lookups: 10, ServiceTime: time.Millisecond, Calls: 2})
	s.Add(sharding.TableLoadKey{TableID: 2, PartIndex: 1}, sharding.TableLoad{Lookups: 5, Calls: 1})
	f.Add(EncodeLoadSummary(s))
	f.Add(EncodeLoadSummary(sharding.NewLoadSummary()))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeLoadSummary(b)
		if err != nil {
			return
		}
		again, err := DecodeLoadSummary(EncodeLoadSummary(m))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(again.Tables, m.Tables) {
			t.Fatalf("round trip changed summary: %+v != %+v", again.Tables, m.Tables)
		}
	})
}
