package core

// ReferenceEstimate exposes the interpreted reference estimator to the
// external end-to-end tests (package core_test).
var ReferenceEstimate = referenceEstimate
