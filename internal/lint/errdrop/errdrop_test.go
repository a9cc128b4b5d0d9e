package errdrop_test

import (
	"testing"

	"affinitycluster/internal/lint/analysistest"
	"affinitycluster/internal/lint/errdrop"
)

func TestErrdrop(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), errdrop.Analyzer, "errdrop", "cloudsim")
}
