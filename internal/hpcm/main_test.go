package hpcm

import (
	"testing"

	"autoresched/internal/testutil"
)

// TestMain fails the package's run if any test leaves a goroutine behind —
// in particular a destination whose lazy stream died after the commit point.
func TestMain(m *testing.M) { testutil.VerifyTestMain(m) }
