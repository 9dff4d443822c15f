package atomicwrite_test

import (
	"testing"

	"repro/internal/lint/atomicwrite"
	"repro/internal/lint/linttest"
)

func TestAtomicwrite(t *testing.T) {
	linttest.Run(t, "testdata", atomicwrite.Analyzer, "atomicwrite")
}

// TestFsutilSyncRule runs the fixture whose package path ends in
// internal/fsutil: there the direct-call ban is lifted (it is the blessed
// implementation) but renames must still be preceded by an fsync.
func TestFsutilSyncRule(t *testing.T) {
	linttest.Run(t, "testdata", atomicwrite.Analyzer, "internal/fsutil")
}

// TestMmapdataEnforced proves the mmap subsystem is held to the same
// crash-safe write discipline as the rest of the persistence layer: the
// package is read-mostly (it maps snapshots), so any direct os.* write
// creeping in is a design smell the analyzer must flag.
func TestMmapdataEnforced(t *testing.T) {
	linttest.Run(t, "testdata", atomicwrite.Analyzer, "internal/mmapdata")
}

func TestMatch(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/store":    true,
		"repro/internal/grouping": true,
		"repro/internal/replica":  true,
		"repro/internal/ts":       true,
		"repro/internal/fsutil":   true,
		"repro/internal/mmapdata": true,
		"repro/internal/core":     false,
		"repro/cmd/onexd":         false,
	} {
		if got := atomicwrite.Analyzer.Match(path); got != want {
			t.Errorf("Match(%q) = %v, want %v", path, got, want)
		}
	}
}
