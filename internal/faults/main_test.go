package faults

import (
	"testing"

	"autoresched/internal/testutil"
)

// TestMain fails the package's test run if goroutines started by the tests
// (the injector's plan loop among them) outlive it.
func TestMain(m *testing.M) { testutil.VerifyTestMain(m) }
