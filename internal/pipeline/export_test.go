package pipeline

// MaxIterations exposes the Figure-3 loop's iteration cap to the external
// tests.
const MaxIterations = maxIterations
