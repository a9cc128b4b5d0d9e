package aliasret_test

import (
	"testing"

	"affinitycluster/internal/lint/aliasret"
	"affinitycluster/internal/lint/analysistest"
)

func TestAliasret(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), aliasret.Analyzer, "aliasret", "dfs")
}
