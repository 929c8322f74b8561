/**
 * @file
 * Quickstart: build a Bell pair, attach an entanglement assertion,
 * run it through the runtime execution engine on the ideal
 * state-vector backend and on the noisy ibmqx4 model, and read the
 * assertion report.
 *
 * Build & run:
 *   cmake -B build && cmake --build build -j
 *   ./build/examples/quickstart
 */

#include <cstdio>
#include <memory>

#include "qra.hh"

using namespace qra;
using namespace qra::runtime;

int
main()
{
    // 1. A payload circuit: Bell pair with both qubits measured.
    Circuit payload(2, 2, "bell");
    payload.h(0).cx(0, 1);
    payload.measure(0, 0).measure(1, 1);

    // 2. An assertion: after instruction 2 (the CX), qubits 0 and 1
    //    must be entangled in the even-parity subspace.
    AssertionSpec spec;
    spec.assertion = std::make_shared<EntanglementAssertion>(2);
    spec.targets = {0, 1};
    spec.insertAt = 2;
    spec.label = "bell pair ready";

    // 3. Instrument: one ancilla qubit and one classical bit are
    //    appended; the check runs inline with the program.
    const InstrumentedCircuit inst = instrument(payload, {spec});
    std::printf("%s\n", inst.circuit().draw().c_str());

    // 4. The execution engine shards the shot budget across a thread
    //    pool and picks a backend from the registry ("auto" would
    //    also work). Ideal run: the assertion never fires and the
    //    payload stays perfectly correlated.
    ExecutionEngine engine;
    const AssertionReport ideal_report = analyze(
        inst, engine.run(inst.circuit(), 4096, "statevector", 1234));
    std::printf("ideal device:\n%s\n",
                ideal_report.str(inst).c_str());

    // 5. Noisy run on the ibmqx4 model: transpile to the device
    //    (connectivity + directed CNOTs), then simulate with its
    //    calibrated noise on the exact density backend — all routed
    //    through the same engine call with a noise model attached.
    const DeviceModel device = DeviceModel::ibmqx4();
    const TranspileResult mapped =
        transpile(inst.circuit(), device.couplingMap());
    std::printf("%s\n", mapped.str().c_str());

    const Result r_noisy = engine.run(
        mapped.circuit, 4096, "auto", 1234, &device.noiseModel());
    const AssertionReport noisy_report = analyze(inst, r_noisy);
    std::printf("ibmqx4 model:\n%s\n",
                noisy_report.str(inst).c_str());

    // 6. The paper's punchline: filtering on the assertion bit
    //    lowers the payload error rate.
    const stats::ErrorRateReport err = errorRates(
        inst, r_noisy, [](std::uint64_t payload_bits) {
            return payload_bits == 0b01 || payload_bits == 0b10;
        });
    std::printf("error filtering: %s\n", err.str().c_str());
    return 0;
}
