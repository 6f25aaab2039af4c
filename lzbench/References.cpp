//===- References.cpp - independent results for the suite programs -------===//
//
// Part of the lambda-ssa project, reproducing "Lambda the Ultimate SSA"
// (CGO 2022). MIT license.
//
//===----------------------------------------------------------------------===//

#include "References.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <vector>

using namespace lzbench;

namespace {

using i64 = int64_t;

/// The linear congruential step qsort, rbmap_checkpoint and unionfind use.
i64 nextSeed(i64 S) { return (S * 1103515245 + 12345) % 2147483648; }

// binarytrees: a complete tree of depth d has 2^(d+1) - 1 nodes, and the
// program sums that checksum over 40 iterations.
i64 binaryTrees(long D) { return 40 * ((i64(1) << (D + 1)) - 1); }

// binarytrees-int: level k of mkTree n d holds n*2^k + j for j < 2^k, so
// it sums to n*4^k + 2^k(2^k - 1)/2; iterations run n = 40 .. 1.
i64 binaryTreesInt(long D) {
  i64 Total = 0;
  for (i64 N = 1; N <= 40; ++N)
    for (long K = 0; K < D; ++K) {
      i64 W = i64(1) << K;
      Total += N * W * W + W * (W - 1) / 2;
    }
  return Total;
}

// const_fold: folding only asks whether a subtree is free of Var, which
// depends on the depth and on v mod 3 alone; the size of the folded tree
// follows from that.
struct Folded {
  bool IsNum;
  i64 Size;
};
Folded foldedExpr(long D, i64 V) {
  if (D == 0)
    return {V % 3 != 0, 1};
  Folded L = foldedExpr(D - 1, V + 1);
  Folded Mul = L.IsNum ? Folded{true, 1} : Folded{false, 1 + L.Size + 1};
  Folded R = foldedExpr(D - 1, V + 2);
  if (Mul.IsNum && R.IsNum)
    return {true, 1};
  return {false, 1 + Mul.Size + R.Size};
}
i64 constFold(long D) {
  i64 Total = 0;
  for (i64 I = 1; I <= 10; ++I)
    Total += foldedExpr(D, I).Size;
  return Total;
}

// deriv: the three derivatives built as a shared DAG, sized as a tree.
struct Expr {
  enum Kind { Num, X, Add, Mul } K;
  std::shared_ptr<const Expr> A, B;
};
using ExprRef = std::shared_ptr<const Expr>;
ExprRef mk(Expr::Kind K, ExprRef A = nullptr, ExprRef B = nullptr) {
  return std::make_shared<const Expr>(Expr{K, std::move(A), std::move(B)});
}
ExprRef derive(const ExprRef &E) {
  switch (E->K) {
  case Expr::Num:
  case Expr::X:
    return mk(Expr::Num);
  case Expr::Add:
    return mk(Expr::Add, derive(E->A), derive(E->B));
  case Expr::Mul:
    return mk(Expr::Add, mk(Expr::Mul, derive(E->A), E->B),
              mk(Expr::Mul, E->A, derive(E->B)));
  }
  return nullptr;
}
i64 treeSize(const ExprRef &E, std::unordered_map<const Expr *, i64> &Memo) {
  if (!E->A)
    return 1;
  auto It = Memo.find(E.get());
  if (It != Memo.end())
    return It->second;
  i64 S = 1 + treeSize(E->A, Memo) + treeSize(E->B, Memo);
  Memo.emplace(E.get(), S);
  return S;
}
i64 deriv(long D) {
  ExprRef E = mk(Expr::X);
  for (long I = 1; I <= D; ++I)
    E = mk(Expr::Mul, E, mk(Expr::Add, mk(Expr::X), mk(Expr::Num)));
  ExprRef D3 = derive(derive(derive(E)));
  std::unordered_map<const Expr *, i64> Memo;
  return treeSize(D3, Memo);
}

// filter: even numbers plus multiples of three in 1..n.
i64 filter(long N) {
  i64 Evens = N / 2, Threes = N / 3;
  return Evens * (Evens + 1) + 3 * Threes * (Threes + 1) / 2;
}

// qsort: the sorted order is unique, so std::sort stands in for the
// program's in-place quicksort.
i64 qsort(long N) {
  std::vector<i64> A;
  for (i64 I = 0, S = 42; I < N; ++I, S = nextSeed(S))
    A.push_back(S % 10007);
  std::sort(A.begin(), A.end());
  i64 Acc = 0;
  for (i64 X : A)
    Acc = (Acc * 31 + X) % 1000000007;
  return Acc;
}

// rbmap_checkpoint: a later insert of a key overwrites its value; absent
// keys look up as 0.
i64 rbmap(long N) {
  std::map<i64, i64> M;
  for (i64 I = 0, S = 42; I < N; ++I, S = nextSeed(S))
    M[S % 65536] = I;
  i64 Acc = 0;
  for (i64 I = 1000; I > 0; --I) {
    auto It = M.find(I * 7 % 65536);
    Acc += It == M.end() ? 0 : It->second;
  }
  return Acc;
}

// unionfind: the number of roots is the number of components, whichever
// union-find computes it.
i64 unionFind(long N) {
  std::vector<i64> Parent(N);
  std::iota(Parent.begin(), Parent.end(), 0);
  auto Find = [&](i64 I) {
    while (Parent[I] != I)
      I = Parent[I] = Parent[Parent[I]];
    return I;
  };
  i64 Components = N;
  for (i64 I = 0, S = 42; I < N; ++I, S = nextSeed(S)) {
    i64 RX = Find(S % N), RY = Find((S / 7 + I) % N);
    if (RX != RY) {
      Parent[RX] = RY;
      --Components;
    }
  }
  return Components;
}

// cps_pipeline: the continuation stack computes (x + 1) * 2 - 3.
i64 cpsPipeline(long N) {
  i64 Acc = 1;
  for (i64 I = 0; I < N; ++I)
    Acc = (2 * (Acc + I) - 1) % 1048576;
  return Acc;
}

// church_arith: loopAdd sums 1..n; each church step adds 2+3 and 2*3.
i64 churchArith(long N) { return i64(N) * (N + 1) / 2 + 11 * i64(N); }

// compose_chains: the composed closure adds 3, 200 times; step adds i + 1.
i64 composeChains(long N) { return 600 + i64(N) * (N + 1) / 2; }

} // namespace

std::optional<std::string> lzbench::referenceResult(const std::string &Name,
                                                    long Size) {
  static const std::map<std::string, i64 (*)(long)> Table = {
      {"binarytrees", binaryTrees},
      {"binarytrees-int", binaryTreesInt},
      {"const_fold", constFold},
      {"deriv", deriv},
      {"filter", filter},
      {"qsort", qsort},
      {"rbmap_checkpoint", rbmap},
      {"unionfind", unionFind},
      {"cps_pipeline", cpsPipeline},
      {"church_arith", churchArith},
      {"compose_chains", composeChains},
  };
  auto It = Table.find(Name);
  if (It == Table.end())
    return std::nullopt;
  return std::to_string(It->second(Size));
}
