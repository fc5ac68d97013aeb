"""Digital-analog schedule synthesis with calibration-error bounds.

The package turns target and source two-body Pauli couplings into timed
single-qubit-gate block schedules, models constant calibration defects,
evaluates analytic bounds on the resulting simulation error, and verifies
those bounds against exact dense-matrix computations.
"""
