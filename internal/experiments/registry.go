// Package experiments contains one driver per table/figure of the
// paper's evaluation, a config registry, and the table-formatting
// helpers that print the same rows/series the paper reports.
package experiments

import (
	"sort"

	"catch/internal/config"
)

// ConfigByName resolves the named configurations used across the
// evaluation.
func ConfigByName(name string) (config.SystemConfig, bool) {
	base := config.BaselineExclusive()
	incl := config.BaselineInclusive()
	switch name {
	case "baseline-excl":
		return base, true
	case "baseline-incl":
		return incl, true
	case "nol2-6.5":
		return config.NoL2(base, 6656*config.KB, 13, name), true
	case "nol2-9.5":
		return config.NoL2(base, 9728*config.KB, 19, name), true
	case "nol2-6.5-catch":
		return config.WithCATCH(config.NoL2(base, 6656*config.KB, 13, ""), name), true
	case "nol2-9.5-catch":
		return config.WithCATCH(config.NoL2(base, 9728*config.KB, 19, ""), name), true
	case "catch":
		return config.WithCATCH(base, name), true
	case "nol2-incl":
		return config.NoL2(incl, 8*config.MB, 16, name), true
	case "nol2-incl-catch":
		return config.WithCATCH(config.NoL2(incl, 8*config.MB, 16, ""), name), true
	case "nol2-incl-9mb-catch":
		return config.WithCATCH(config.NoL2(incl, 9*config.MB, 18, ""), name), true
	case "catch-incl":
		return config.WithCATCH(incl, name), true
	}
	return config.SystemConfig{}, false
}

// ConfigNames lists the registered configuration names.
func ConfigNames() []string {
	names := []string{
		"baseline-excl", "baseline-incl",
		"nol2-6.5", "nol2-9.5",
		"nol2-6.5-catch", "nol2-9.5-catch",
		"catch",
		"nol2-incl", "nol2-incl-catch", "nol2-incl-9mb-catch", "catch-incl",
	}
	sort.Strings(names)
	return names
}
