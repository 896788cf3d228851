// Must-fire fixture for no-heap-reachable: a hot-path helper allocates
// inside an `if constexpr` branch. The branch body belongs to the helper;
// the parser must not mistake `constexpr (cond) {` for a function named
// `constexpr` and drop the allocation from the call graph.
//
// expect-fire: no-heap-reachable

namespace rna {
namespace nn {

inline float StepKernel(int n) {
  float acc = 0.0f;
  if constexpr (sizeof(float) == 4) {
    float* s = new float[static_cast<unsigned>(n)];
    acc = s[0];
    delete[] s;
  }
  return acc;
}

class FixtureNet {
 public:
  float ForwardBackward(int n) { return StepKernel(n); }
};

}  // namespace nn
}  // namespace rna
