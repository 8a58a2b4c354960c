/* Level-slice kernels for the struct-of-arrays STA (Flat_sta).
 *
 * Each call processes one contiguous slice [lo, hi) of a level
 * permutation; the OCaml side owns level iteration and instrumentation. Kept in C because the per-edge work is three loads, a
 * compare and a branch — the OCaml-native versions of these loops run
 * ~2x slower (boxed Float.max call or mispredicted float-select), and
 * this pair is the whole hot path of the 100k-1M gate benchmarks.
 *
 * Bit-identity contract (the differential suite enforces it against the
 * record-walking reference in test/sta_ref.ml): these kernels perform
 * exactly the reference's IEEE double operations in the same per-node
 * order. `if (a > worst) worst = a;` matches the Float.max fold for
 * every NaN-free input: the accumulator is seeded with +0.0 and delays
 * are added afterwards, so no arrival value can be -0.0 and the two
 * operators agree on everything else. The build forces
 * -ffp-contract=off so no compiler-fused multiply-adds can perturb
 * results (the kernels contain no multiplies, this is belt and braces).
 *
 * The stubs are [@@noalloc] and touch no OCaml runtime state, so
 * optimizers running on pool domains may execute them concurrently on
 * their own columns. OCaml int arrays are tagged-value arrays, decoded per element
 * with Long_val (a shift). Float arrays are flat double payloads.
 */
#include <caml/mlvalues.h>

#define INT_ARR(v) ((const value *)&Field(v, 0))
#define DBL_ARR(v) ((double *)Bp_val(v))
#define CONST_DBL_ARR(v) ((const double *)Bp_val(v))

static void fwd_range(double *arrival, const double *delays,
                      const value *order, const value *off, const value *edges,
                      long lo, long hi) {
  for (long k = lo; k < hi; k++) {
    long id = Long_val(order[k]);
    long s = Long_val(off[id]), e = Long_val(off[id + 1]);
    double worst = 0.0;
    for (long p = s; p < e; p++) {
      double a = arrival[Long_val(edges[p])];
      if (a > worst) worst = a;
    }
    arrival[id] = worst + delays[id];
  }
}

CAMLprim value dcopt_flat_sta_forward_range_native(value v_arrival,
                                                   value v_delays,
                                                   value v_order,
                                                   value v_fanin_off,
                                                   value v_fanin_edges,
                                                   intnat lo, intnat hi) {
  fwd_range(DBL_ARR(v_arrival), CONST_DBL_ARR(v_delays), INT_ARR(v_order),
            INT_ARR(v_fanin_off), INT_ARR(v_fanin_edges), lo, hi);
  return Val_unit;
}

CAMLprim value dcopt_flat_sta_forward_range_bytecode(value *argv, int argn) {
  (void)argn;
  fwd_range(DBL_ARR(argv[0]), CONST_DBL_ARR(argv[1]), INT_ARR(argv[2]),
            INT_ARR(argv[3]), INT_ARR(argv[4]), Long_val(argv[5]),
            Long_val(argv[6]));
  return Val_unit;
}

/* required.(id) = min over consumers c (all at strictly higher levels,
   already final) of required.(c) - delays.(c), seeded per node from a
   precomputed column: +inf at non-endpoints and released endpoints, the
   endpoint's own bound otherwise (a scalar target is the uniform seed).
   Slack is fused into the same sweep since arrival is final here.
   `if (need < req)` matches the reference's compare-and-update. A node's
   seed is read before its own required cell is written, and no other
   index writes that cell, so [seed] may alias [required]. */
static void bwd_range_req(double *required, double *slack,
                          const double *arrival, const double *delays,
                          const value *order, const value *off,
                          const value *edges, const double *seed, long lo,
                          long hi) {
  for (long k = lo; k < hi; k++) {
    long id = Long_val(order[k]);
    double req = seed[id];
    long s = Long_val(off[id]), e = Long_val(off[id + 1]);
    for (long p = s; p < e; p++) {
      long c = Long_val(edges[p]);
      double need = required[c] - delays[c];
      if (need < req) req = need;
    }
    required[id] = req;
    slack[id] = req - arrival[id];
  }
}

CAMLprim value dcopt_flat_sta_backward_req_range_native(
    value v_required, value v_slack, value v_arrival, value v_delays,
    value v_order, value v_fanout_off, value v_fanout_edges, value v_seed,
    intnat lo, intnat hi) {
  bwd_range_req(DBL_ARR(v_required), DBL_ARR(v_slack),
                CONST_DBL_ARR(v_arrival), CONST_DBL_ARR(v_delays),
                INT_ARR(v_order), INT_ARR(v_fanout_off),
                INT_ARR(v_fanout_edges), CONST_DBL_ARR(v_seed), lo, hi);
  return Val_unit;
}

CAMLprim value dcopt_flat_sta_backward_req_range_bytecode(value *argv,
                                                          int argn) {
  (void)argn;
  bwd_range_req(DBL_ARR(argv[0]), DBL_ARR(argv[1]), CONST_DBL_ARR(argv[2]),
                CONST_DBL_ARR(argv[3]), INT_ARR(argv[4]), INT_ARR(argv[5]),
                INT_ARR(argv[6]), CONST_DBL_ARR(argv[7]), Long_val(argv[8]),
                Long_val(argv[9]));
  return Val_unit;
}
