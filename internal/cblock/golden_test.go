package cblock_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"purity/internal/cblock"
	"purity/internal/workload"
)

// fillGen fills dst from a workload generator at block index idx.
func fillGen(class workload.DataClass, idx uint64) func([]byte) {
	return func(dst []byte) { workload.NewGen(1, class).Fill(dst, idx) }
}

// fillRepeat is random data whose third quarter repeats its first: one
// long match that does not overlap its own output.
func fillRepeat(dst []byte) {
	q := len(dst) / 4
	workload.NewGen(1, workload.ClassRandom).Fill(dst, 0)
	copy(dst[2*q:3*q], dst[:q])
}

// TestPackGoldenFrames pins the on-flash frame format: Pack must produce
// exactly these bytes for these payloads, whatever buffers or copy loops
// the encoder and decoder use inside. The expected lengths and digests were
// recorded from the original append-grown encoder; a change to them is a
// format change, which a stored array cannot read back.
func TestPackGoldenFrames(t *testing.T) {
	cases := []struct {
		name    string
		fill    func([]byte)
		sectors int
		comp    bool
		wantLen int
		wantSum string // first 16 hex digits of the frame's SHA-256
	}{
		{"database/4k", fillGen(workload.ClassDatabase, 0), 8, true, 1637, "cac1168d36923f4a"},
		{"database/32k", fillGen(workload.ClassDatabase, 640), 64, true, 12447, "36b3f3bc87a755c9"},
		{"database/32k/raw", fillGen(workload.ClassDatabase, 640), 64, false, 32772, "99e8004f6e8832cd"},
		{"vdi/32k", fillGen(workload.ClassVDI, 128), 64, true, 32772, "3820151af6f1ff02"},
		{"vdi/3k", fillGen(workload.ClassVDI, 4096), 6, true, 3075, "c09acf44e6607592"},
		{"zero/512", fillGen(workload.ClassZero, 0), 1, true, 10, "216b0c126b190558"},
		{"zero/32k", fillGen(workload.ClassZero, 0), 64, true, 138, "7222f0fe18053385"},
		{"random/4k", fillGen(workload.ClassRandom, 9), 8, true, 4099, "b6d1bb8f88a136e3"},
		{"random/32k/raw", fillGen(workload.ClassRandom, 9), 64, false, 32772, "64bb37b0ea611d9f"},
		{"repeat/32k", fillRepeat, 64, true, 22507, "2ce0110a14e0d4ec"},
	}
	for _, tc := range cases {
		data := make([]byte, tc.sectors*cblock.SectorSize)
		tc.fill(data)
		frame, err := cblock.Pack(data, tc.comp)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256(frame)
		if got := hex.EncodeToString(sum[:8]); len(frame) != tc.wantLen || got != tc.wantSum {
			t.Errorf("%s: frame len %d sum %s, want len %d sum %s", tc.name, len(frame), got, tc.wantLen, tc.wantSum)
		}
		back, err := cblock.Unpack(frame)
		if err != nil || !bytes.Equal(back, data) {
			t.Errorf("%s: round trip failed: %v", tc.name, err)
		}
	}
}
