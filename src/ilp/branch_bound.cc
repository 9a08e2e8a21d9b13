// 0-1 ILP via depth-first branch-and-bound over simplex relaxations.
#include <algorithm>
#include <cmath>
#include <limits>

#include "common/status.h"
#include "ilp/ilp.h"

namespace ucudnn::ilp {

namespace {

constexpr double kIntEps = 1e-6;
/// Branch-and-bound node budget.
constexpr std::int64_t kMaxNodes = 1'000'000;

struct Node {
  std::vector<int> fixed;  // -1 free, 0/1 fixed
};

// LP with x <= 1 rows for free vars and x = v rows for fixed vars.
LinearProgram relax(const LinearProgram& base, const std::vector<int>& fixed) {
  LinearProgram lp = base;
  const std::size_t n = base.num_vars();
  for (std::size_t i = 0; i < n; ++i) {
    Constraint con;
    con.coeffs.assign(n, 0.0);
    con.coeffs[i] = 1.0;
    if (fixed[i] < 0) {
      con.relation = Relation::kLessEqual;
      con.rhs = 1.0;
    } else {
      con.relation = Relation::kEqual;
      con.rhs = static_cast<double>(fixed[i]);
    }
    lp.constraints.push_back(std::move(con));
  }
  return lp;
}

}  // namespace

IlpResult solve_binary_ilp(const LinearProgram& lp) {
  const std::size_t n = lp.num_vars();
  IlpResult best;
  best.objective = std::numeric_limits<double>::infinity();

  std::vector<Node> stack;
  stack.push_back(Node{std::vector<int>(n, -1)});

  std::int64_t nodes = 0;
  while (!stack.empty() && nodes < kMaxNodes) {
    Node node = std::move(stack.back());
    stack.pop_back();
    ++nodes;

    const LpResult relaxed = solve_lp(relax(lp, node.fixed));
    if (!relaxed.feasible || relaxed.unbounded) continue;
    if (relaxed.objective >= best.objective - 1e-9) continue;  // bound

    // Most fractional free variable.
    std::size_t branch_var = n;
    double worst_frac = kIntEps;
    for (std::size_t i = 0; i < n; ++i) {
      const double frac = std::abs(relaxed.x[i] - std::round(relaxed.x[i]));
      if (frac > worst_frac) {
        worst_frac = frac;
        branch_var = i;
      }
    }

    if (branch_var == n) {
      // Integral: new incumbent.
      best.feasible = true;
      best.objective = relaxed.objective;
      best.x.assign(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        best.x[i] = static_cast<int>(std::round(relaxed.x[i]));
      }
      continue;
    }

    // Explore the rounded side first (DFS: pushed last, popped first).
    const int preferred = relaxed.x[branch_var] >= 0.5 ? 1 : 0;
    Node other = node;
    other.fixed[branch_var] = 1 - preferred;
    stack.push_back(std::move(other));
    node.fixed[branch_var] = preferred;
    stack.push_back(std::move(node));
  }

  if (!best.feasible) best.objective = 0.0;
  return best;
}

LinearProgram mckp_to_ilp(const MckpProblem& problem) {
  std::size_t n = 0;
  for (const auto& group : problem.groups) n += group.size();

  LinearProgram lp;
  lp.objective.reserve(n);
  for (const auto& group : problem.groups) {
    for (const auto& item : group) lp.objective.push_back(item.cost);
  }

  // Budget row: sum of weights <= capacity.
  Constraint budget;
  budget.coeffs.reserve(n);
  for (const auto& group : problem.groups) {
    for (const auto& item : group) {
      budget.coeffs.push_back(static_cast<double>(item.weight));
    }
  }
  budget.relation = Relation::kLessEqual;
  budget.rhs = static_cast<double>(problem.capacity);
  lp.constraints.push_back(std::move(budget));

  // Exactly-one rows.
  std::size_t offset = 0;
  for (const auto& group : problem.groups) {
    Constraint pick;
    pick.coeffs.assign(n, 0.0);
    for (std::size_t i = 0; i < group.size(); ++i) pick.coeffs[offset + i] = 1.0;
    pick.relation = Relation::kEqual;
    pick.rhs = 1.0;
    lp.constraints.push_back(std::move(pick));
    offset += group.size();
  }
  return lp;
}

}  // namespace ucudnn::ilp
