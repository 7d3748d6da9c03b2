package ftl

import "fmt"

// Versions tracks, per logical sector, the host write version and whether
// the most recent host write was part of a small request. The version
// feeds the integrity stamps (a read must return the newest version); the
// origin bit feeds the paper's small-write request-WAF attribution.
type Versions struct {
	version []uint32
	small   []bool
}

// NewVersions returns a tracker for n logical sectors, all at version 0
// (never written).
func NewVersions(n int64) *Versions {
	return &Versions{version: make([]uint32, n), small: make([]bool, n)}
}

// Size returns the number of tracked sectors.
func (v *Versions) Size() int64 { return int64(len(v.version)) }

// Bump records a host write of lsn, returning the new version. smallReq
// records whether the write belonged to a small request.
func (v *Versions) Bump(lsn int64, smallReq bool) uint32 {
	v.version[lsn]++
	v.small[lsn] = smallReq
	return v.version[lsn]
}

// Current returns the newest host version of lsn (0 = never written).
func (v *Versions) Current(lsn int64) uint32 { return v.version[lsn] }

// SmallOrigin reports whether lsn's latest data came from a small request.
func (v *Versions) SmallOrigin(lsn int64) bool { return v.small[lsn] }

// Restore raises lsn's version to at least ver, used by mount-time
// recovery to re-seed the tracker from on-flash stamps. Callers pass only
// the version of the copy they adopt as live: the read path verifies stamps
// against Current, and a stale copy can legitimately out-version the winner
// (a trim resets the counter, so a post-trim rewrite restarts below the
// orphaned pre-trim copies). Stale copies are harmless — they are never
// reachable through any rebuilt mapping, and a later crash re-resolves by
// sequence number, not version. The small-origin bit is not persisted;
// recovery leaves it cold.
func (v *Versions) Restore(lsn int64, ver uint32) {
	if ver > v.version[lsn] {
		v.version[lsn] = ver
	}
}

// Clear resets lsn to never-written (after a trim).
func (v *Versions) Clear(lsn int64) {
	v.version[lsn] = 0
	v.small[lsn] = false
}

// CheckRange validates a host-addressed range against the tracker size.
// The end is compared as a remainder, so no lsn near math.MaxInt64 can
// overflow past the check.
func (v *Versions) CheckRange(lsn int64, sectors int) error {
	if lsn < 0 || sectors <= 0 || int64(sectors) > v.Size()-lsn {
		return fmt.Errorf("ftl: range [%d,+%d) outside logical space of %d sectors", lsn, sectors, v.Size())
	}
	return nil
}
