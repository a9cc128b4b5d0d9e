package scratchpool_test

import (
	"testing"

	"affinitycluster/internal/lint/analysistest"
	"affinitycluster/internal/lint/scratchpool"
)

func TestScratchpool(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), scratchpool.Analyzer, "scratchpool", "placement")
}
