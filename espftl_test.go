package espftl

import (
	"strings"
	"testing"
	"time"

	"espftl/internal/nand"
)

func tinySSD(t *testing.T, kind FTLKind) *SSD {
	t.Helper()
	ssd, err := New(Config{
		FTL: kind,
		Geometry: Geometry{
			Channels:        2,
			ChipsPerChannel: 2,
			BlocksPerChip:   8,
			PagesPerBlock:   8,
			SubpagesPerPage: 4,
			SubpageBytes:    4096,
		},
		LogicalSectors: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ssd
}

func TestNewDefaults(t *testing.T) {
	ssd, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ssd.FTLName() != "subFTL" {
		t.Fatalf("default FTL = %q", ssd.FTLName())
	}
	if ssd.Geometry() != nand.DefaultGeometry {
		t.Fatal("default geometry not applied")
	}
	if ssd.LogicalSectors() <= 0 {
		t.Fatal("no logical space derived")
	}
}

func TestNewUnknownKind(t *testing.T) {
	if _, err := New(Config{FTL: "bogus"}); err == nil || !strings.Contains(err.Error(), "unknown FTL") {
		t.Fatalf("err = %v", err)
	}
}

func TestAllKindsEndToEnd(t *testing.T) {
	for _, kind := range []FTLKind{CGMFTL, FGMFTL, SubFTL} {
		t.Run(string(kind), func(t *testing.T) {
			ssd := tinySSD(t, kind)
			if ssd.FTLName() != string(kind) {
				t.Fatalf("FTLName = %q", ssd.FTLName())
			}
			for i := int64(0); i < 200; i++ {
				if err := ssd.Write(i%128, 1, i%2 == 0); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
			if err := ssd.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := ssd.Read(0, 64); err != nil {
				t.Fatal(err)
			}
			if err := ssd.Trim(0, 4); err != nil {
				t.Fatal(err)
			}
			if err := ssd.Check(); err != nil {
				t.Fatal(err)
			}
			s := ssd.Stats()
			if s.HostWriteReqs != 200 || s.HostReadReqs != 1 || s.HostTrimReqs != 1 {
				t.Fatalf("stats: %+v", s)
			}
			if ssd.Elapsed() <= 0 {
				t.Fatal("no virtual time elapsed")
			}
		})
	}
}

func TestIdleAdvancesTimeAndTicks(t *testing.T) {
	ssd := tinySSD(t, SubFTL)
	if err := ssd.Write(0, 1, true); err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 40; day++ {
		if err := ssd.Idle(24 * time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if ssd.Elapsed() < 40*24*time.Hour {
		t.Fatalf("Idle did not advance time: %v", ssd.Elapsed())
	}
	// The retention manager must have moved the parked sector; it still
	// reads back fine.
	if ssd.Stats().RetentionMoves == 0 {
		t.Fatal("retention manager never ran via Idle")
	}
	if err := ssd.Read(0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestSubRegionFracOverride(t *testing.T) {
	ssd, err := New(Config{
		FTL: SubFTL,
		Geometry: Geometry{
			Channels: 2, ChipsPerChannel: 2, BlocksPerChip: 16,
			PagesPerBlock: 8, SubpagesPerPage: 4, SubpageBytes: 4096,
		},
		LogicalSectors: 512,
		SubRegionFrac:  0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ssd.Write(0, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := ssd.Check(); err != nil {
		t.Fatal(err)
	}
}

// A negative region fraction is refused like any other outside (0,1), not
// silently replaced by the 0.20 default.
func TestSubRegionFracRejectsNegative(t *testing.T) {
	_, err := New(Config{
		FTL: SubFTL,
		Geometry: Geometry{
			Channels: 2, ChipsPerChannel: 2, BlocksPerChip: 16,
			PagesPerBlock: 8, SubpagesPerPage: 4, SubpageBytes: 4096,
		},
		LogicalSectors: 512,
		SubRegionFrac:  -0.5,
	})
	if err == nil || !strings.Contains(err.Error(), "SubRegionFrac") {
		t.Fatalf("SubRegionFrac -0.5: err = %v, want a refusal", err)
	}
}

func TestDeviceAndFTLAccessors(t *testing.T) {
	ssd := tinySSD(t, SubFTL)
	if ssd.Device() == nil || ssd.FTL() == nil {
		t.Fatal("accessors returned nil")
	}
	if ssd.LogicalSectors() != 512 {
		t.Fatalf("LogicalSectors = %d", ssd.LogicalSectors())
	}
}
