package main

// Pinned SHA-256 digests of the outputs at the current model. A change
// that alters any simulated result must re-pin them; a run whose output
// differs counts the operation as failed.
const (
	// pinnedFig6 covers json.Marshal(Matrix.Cells) of the fig6 matrix,
	// which takes no seed.
	pinnedFig6 = "8b06950598c95dbac1b84c3c3670d6afb9f905103f6d450ea5a7bc75e6dd138c"
	// pinnedService covers, at the default seed, every cold cell's key
	// and result bytes, then the cells of the leading batches.
	pinnedService = "9bc3a5e998eedc0afc5518d391263ab98dfc88c746a02ea49b862424597bfb0a"
)

// pinnedMulticore covers json.Marshal(multicore.Result) per scheduler
// at the default seed.
var pinnedMulticore = map[string]string{
	"roundrobin":    "c0884b01288e12e1af134e7fc01139ee68ec4298c9e8abb1384fd3e70f016f44",
	"coolest-first": "f9976e0d3f7ccec7853247fc9b90892a6a25fbafe5b33338f824d3da623a8cdf",
}
