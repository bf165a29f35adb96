package core

// BuildStructure lets the package's external tests, which may import the
// packages that import core, build the seeded workloads its own tests use.
var BuildStructure = buildStructure
