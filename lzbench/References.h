//===- References.h - independent results for suite programs ---*- C++ -*-===//
//
// Part of the lambda-ssa project, reproducing "Lambda the Ultimate SSA"
// (CGO 2022). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The expected `main` result of each of the eleven suite programs
/// (programs::getBenchmarkSuite and getHigherOrderSuite) at any size,
/// computed without the compiler, the VM or the λpure interpreter: a
/// closed form where the program has one, otherwise a small C++
/// reimplementation of the same computation (with std::sort / std::map /
/// a path-compressing union-find where the answer does not depend on the
/// algorithm). The benchmark checks every VM result against these, and
/// checks these against the λpure oracle at the programs' test sizes so
/// that a wrong reference is caught too.
///
//===----------------------------------------------------------------------===//

#ifndef LZBENCH_REFERENCES_H
#define LZBENCH_REFERENCES_H

#include <optional>
#include <string>

namespace lzbench {

/// The display string of `main`'s result for suite program \p Name
/// instantiated at \p Size, or nullopt for a name with no reference.
std::optional<std::string> referenceResult(const std::string &Name,
                                           long Size);

} // namespace lzbench

#endif // LZBENCH_REFERENCES_H
