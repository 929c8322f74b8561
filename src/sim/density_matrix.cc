#include "sim/density_matrix.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"
#include "math/linalg.hh"
#include "noise/kraus.hh"
#include "sim/kernels/kernels.hh"
#include "sim/kernels/parallel.hh"

namespace qra {

namespace {

/** 2^n, after checking n before anything of that size is allocated. */
std::size_t
checkedDim(std::size_t num_qubits)
{
    if (num_qubits == 0 || num_qubits > 12)
        throw SimulationError("density matrix supports 1..12 qubits");
    return std::size_t{1} << num_qubits;
}

/**
 * v <- S v for a superoperator @p s on three or more operand bits of
 * the 2n-qubit vector (matrix bit j = operands[j]): the arithmetic of
 * kernels::applyGenericK over S's nonzero entries only. Noise
 * superoperators are sparse (a depolarising two-qubit channel, alone
 * or fused with its gate, has 28 of 256), and applyGenericK forms
 * every product through the out-of-line Matrix accessor: ~45 us per
 * 16x16 pass over a 5-qubit rho against a few us here.
 */
void
applyWide(Complex *v, std::uint64_t size, const Matrix &s,
          const std::vector<Qubit> &operands)
{
    const std::size_t k = operands.size();
    const std::size_t block = std::size_t{1} << k;
    std::vector<std::uint64_t> offsets(block, 0);
    for (std::size_t local = 0; local < block; ++local)
        for (std::size_t j = 0; j < k; ++j)
            if ((local >> j) & 1)
                offsets[local] |= std::uint64_t{1} << operands[j];
    std::vector<std::uint64_t> sorted;
    for (Qubit q : operands)
        sorted.push_back(std::uint64_t{1} << q);
    std::sort(sorted.begin(), sorted.end());

    struct Entry
    {
        std::size_t row;
        std::size_t col;
        Complex value;
    };
    std::vector<Entry> nonzero;
    for (std::size_t r = 0; r < block; ++r)
        for (std::size_t c = 0; c < block; ++c)
            if (s(r, c) != Complex{0.0, 0.0})
                nonzero.push_back({r, c, s(r, c)});

    kernels::parallelFor(
        size >> k, std::max<std::uint64_t>(1, kernels::kParallelGrain >> k),
        [&](std::uint64_t begin, std::uint64_t end) {
            // Real and imaginary parts apart: a std::complex written
            // as two halves and read back whole stalls store-to-load
            // forwarding, which cost 4x here.
            std::vector<double> in_re(block), in_im(block);
            std::vector<double> out_re(block), out_im(block);
            for (std::uint64_t b = begin; b < end; ++b) {
                const std::uint64_t base =
                    kernels::expandIndex(b, sorted.data(), k);
                for (std::size_t local = 0; local < block; ++local) {
                    const Complex x = v[base | offsets[local]];
                    in_re[local] = x.real();
                    in_im[local] = x.imag();
                    out_re[local] = 0.0;
                    out_im[local] = 0.0;
                }
                for (const Entry &e : nonzero) {
                    out_re[e.row] += e.value.real() * in_re[e.col] -
                                     e.value.imag() * in_im[e.col];
                    out_im[e.row] += e.value.real() * in_im[e.col] +
                                     e.value.imag() * in_re[e.col];
                }
                for (std::size_t local = 0; local < block; ++local)
                    v[base | offsets[local]] =
                        Complex{out_re[local], out_im[local]};
            }
        });
}

} // namespace

DensityMatrix::DensityMatrix(std::size_t num_qubits)
    : numQubits_(num_qubits),
      rho_(checkedDim(num_qubits), checkedDim(num_qubits))
{
    rho_(0, 0) = 1.0;
}

DensityMatrix
DensityMatrix::fromPureState(const std::vector<Complex> &amps)
{
    const std::size_t dim = amps.size();
    if (dim < 2 || (dim & (dim - 1)) != 0)
        throw SimulationError("amplitude count must be a power of two");
    std::size_t num_qubits = 0;
    while ((std::size_t{1} << num_qubits) < dim)
        ++num_qubits;

    DensityMatrix dm(num_qubits);
    dm.rho_ = linalg::outer(amps);
    return dm;
}

void
DensityMatrix::checkQubit(Qubit q) const
{
    if (q >= numQubits_)
        throw IndexError("qubit index " + std::to_string(q) +
                         " out of range");
}

Matrix
DensityMatrix::superoperator(const std::vector<Matrix> &kraus)
{
    // sum_j K_j (x) conj(K_j), accumulated straight into the 4^k x 4^k
    // array: entry ((r1 d + r2), (c1 d + c2)) += K(r1, c1) conj(K(r2, c2)).
    const std::size_t d = kraus.front().rows();
    Matrix s(d * d, d * d);
    Complex *out = s.data().data();
    for (const Matrix &k : kraus) {
        const Complex *a = k.data().data();
        for (std::size_t r1 = 0; r1 < d; ++r1)
            for (std::size_t c1 = 0; c1 < d; ++c1) {
                const Complex x = a[r1 * d + c1];
                if (x == Complex{0.0, 0.0})
                    continue;
                for (std::size_t r2 = 0; r2 < d; ++r2)
                    for (std::size_t c2 = 0; c2 < d; ++c2)
                        out[(r1 * d + r2) * d * d + c1 * d + c2] +=
                            x * std::conj(a[r2 * d + c2]);
            }
    }
    return s;
}

void
DensityMatrix::applySuperoperator(const Matrix &s,
                                  const std::vector<Qubit> &qubits)
{
    // Column bits first, so matrix bit j (j < k) is conj(K)'s bit j
    // and bit k + j is K's: the low/high halves of K (x) conj(K).
    std::vector<Qubit> operands(qubits);
    for (Qubit q : qubits)
        operands.push_back(q + numQubits_);
    if (operands.size() == 2)
        kernels::applyMatrix(rho_.data(), s, operands);
    else
        applyWide(rho_.data().data(), rho_.data().size(), s, operands);
}

void
DensityMatrix::applyMatrix(const Matrix &u,
                           const std::vector<Qubit> &qubits)
{
    for (Qubit q : qubits)
        checkQubit(q);
    std::vector<Qubit> rows(qubits);
    for (Qubit &q : rows)
        q += numQubits_;
    kernels::applyMatrix(rho_.data(), u, rows);
    kernels::applyMatrix(rho_.data(), u.conjugate(), qubits);
}

void
DensityMatrix::applyUnitary(const Operation &op)
{
    if (!opIsUnitary(op.kind))
        throw SimulationError(std::string("applyUnitary on '") +
                              opName(op.kind) + "'");
    if (op.kind == OpKind::I)
        return;
    applyMatrix(op.matrix(), op.qubits);
}

void
DensityMatrix::applyKraus(const KrausChannel &channel,
                          const std::vector<Qubit> &qubits)
{
    for (Qubit q : qubits)
        checkQubit(q);
    if (channel.numQubits() != qubits.size())
        throw SimulationError("channel '" + channel.name() + "' acts on " +
                              std::to_string(channel.numQubits()) +
                              " qubits, given " +
                              std::to_string(qubits.size()));
    applySuperoperator(superoperator(channel.operators()), qubits);
}

double
DensityMatrix::probabilityOfOne(Qubit q) const
{
    checkQubit(q);
    const std::uint64_t bit = std::uint64_t{1} << q;
    double p1 = 0.0;
    for (std::uint64_t i = 0; i < dim(); ++i)
        if (i & bit)
            p1 += rho_(i, i).real();
    return std::clamp(p1, 0.0, 1.0);
}

void
DensityMatrix::dephase(Qubit q)
{
    checkQubit(q);
    // Keep the entries whose row and column agree on q (superoperator
    // index 0 = |0><0|, 3 = |1><1|).
    Matrix s(4, 4);
    s(0, 0) = s(3, 3) = 1.0;
    applySuperoperator(s, {q});
}

double
DensityMatrix::postSelect(Qubit q, int outcome)
{
    checkQubit(q);
    const double p1 = probabilityOfOne(q);
    const double p = outcome ? p1 : 1.0 - p1;
    if (p < 1e-12)
        throw SimulationError(
            "post-selection onto a zero-probability branch (qubit " +
            std::to_string(q) + " == " + std::to_string(outcome) + ")");

    // P rho P / p with P = |outcome><outcome|: only the entries whose
    // row and column both read the outcome survive.
    const std::size_t keep = outcome ? 3 : 0;
    Matrix s(4, 4);
    s(keep, keep) = 1.0 / p;
    applySuperoperator(s, {q});
    return p;
}

void
DensityMatrix::resetQubit(Qubit q)
{
    checkQubit(q);
    // Reset = Kraus channel {|0><0|, |0><1|}: |1><1| moves onto
    // |0><0| and the coherences vanish.
    Matrix s(4, 4);
    s(0, 0) = s(0, 3) = 1.0;
    applySuperoperator(s, {q});
}

std::vector<double>
DensityMatrix::probabilities() const
{
    std::vector<double> probs(dim());
    for (std::size_t i = 0; i < dim(); ++i)
        probs[i] = std::max(0.0, rho_(i, i).real());
    return probs;
}

double
DensityMatrix::purity() const
{
    return linalg::purity(rho_);
}

double
DensityMatrix::fidelityWithPure(const std::vector<Complex> &psi) const
{
    return linalg::mixedStateFidelity(rho_, psi);
}

Matrix
DensityMatrix::reducedQubitDensity(Qubit q) const
{
    checkQubit(q);
    std::vector<std::size_t> traced;
    for (std::size_t i = 0; i < numQubits_; ++i)
        if (i != q)
            traced.push_back(i);
    return linalg::partialTrace(rho_, numQubits_, traced);
}

double
DensityMatrix::trace() const
{
    return rho_.trace().real();
}

} // namespace qra
