package spt

// EngineVersion stamps every JSON artifact the engine emits — fuzz and
// verify campaign reports, campaign state files, and full counter dumps.
// Bump it whenever a change can alter any simulated result or report
// schema, so archived reports stay distinguishable across code changes.
//
// The value is "spt-engine/<n>"; <n> increments with the PR sequence
// whenever simulated behavior or report schemas change.
const EngineVersion = "spt-engine/8"
