#include "engines/engines.hh"

#include <cstdlib>
#include <type_traits>
#include <utility>

#include "mrc/engine.hh"
#include "onepass/grid.hh"
#include "onepass/pipeline.hh"
#include "util/logging.hh"
#include "util/str.hh"
#include "util/thread_pool.hh"

namespace mlc {
namespace engines {

namespace {

/** The one engine-name table, in Engine order. */
constexpr const char *kNames[] = {"timing", "onepass", "sampled",
                                  "mrc"};

/** Run @p fn with the profiling sinks of a one-pass engine. */
template <typename Fn>
auto
withSinks(const EngineOptions &opts, Fn &&fn)
{
    if (opts.engine == Engine::OnePass)
        return fn(onepass::ExactSinks{opts.shards});
    if (opts.engine == Engine::Mrc)
        return fn(mrc::SampledSinks{opts.sampler});
    mlc_panic("engines: the ", engineName(opts.engine),
              " engine profiles no cache family");
}

} // namespace

const char *
engineName(Engine engine)
{
    return kNames[static_cast<std::size_t>(engine)];
}

bool
engineNamed(std::string_view name, Engine &engine)
{
    for (std::size_t i = 0; i < std::size(kNames); ++i) {
        if (name == kNames[i]) {
            engine = static_cast<Engine>(i);
            return true;
        }
    }
    return false;
}

EngineOptions
parseArgs(int argc, char **argv, std::vector<std::string> *rest,
          const mrc::SamplerConfig &sampler)
{
    EngineOptions opts;
    opts.jobs = defaultJobs();
    opts.sampler = sampler;
    unsigned long long n = 0;
    if (const char *env = std::getenv("MLC_SHARDS");
        env && parseUnsigned(env, n) && n >= 1)
        opts.shards = static_cast<std::size_t>(n);

    for (int i = 1; i < argc; ++i) {
        // "--flag=value", or "--flag value" across two arguments.
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const std::string flag = arg.substr(0, eq);
        if (flag != "--engine" && flag != "--jobs" &&
            flag != "--shards" && flag != "--sample-rate" &&
            flag != "--sample-budget") {
            if (rest)
                rest->push_back(arg);
            continue;
        }
        std::string value;
        if (eq != std::string::npos)
            value = arg.substr(eq + 1);
        else if (i + 1 < argc)
            value = argv[++i];
        bool ok = false;
        if (flag == "--engine") {
            ok = engineNamed(value, opts.engine);
        } else if (flag == "--sample-rate") {
            char *end = nullptr;
            const double rate = std::strtod(value.c_str(), &end);
            ok = !value.empty() && *end == '\0' && rate > 0.0 &&
                 rate <= 1.0;
            opts.sampler.rate = rate;
        } else if (flag == "--sample-budget") {
            ok = parseUnsigned(value, n);
            opts.sampler.budget = n;
        } else {
            ok = parseUnsigned(value, n) && n >= 1;
            (flag == "--jobs" ? opts.jobs : opts.shards) =
                static_cast<std::size_t>(n);
        }
        if (!ok)
            mlc_fatal("bad ", flag, " value '", value, "'");
    }
    return opts;
}

onepass::CascadeFamilySpec
familyFor(const hier::HierarchyParams &base,
          const std::vector<std::uint64_t> &sizes)
{
    onepass::FamilySpec grid = onepass::FamilySpec::l2Grid(base, sizes);
    if (base.levels.size() == 1)
        return {{}, std::move(grid)};
    if (base.levels.size() != 2)
        mlc_panic("engines: the one-pass engines price two- and "
                  "three-level machines, not ",
                  base.levels.size() + 1, "-level ones");
    const cache::CacheGeometry &l3 = base.levels[1].geometry;
    return {std::move(grid.configs),
            {{{l3.sizeBytes, l3.assoc, l3.blockBytes}}}};
}

std::vector<onepass::TraceProfile>
profile(const EngineOptions &opts, const hier::HierarchyParams &base,
        const onepass::CascadeFamilySpec &family,
        const expt::TraceStore &store, bool solo, bool fa_bound)
{
    return withSinks(opts, [&](const auto &sinks) {
        return onepass::profileStore(base, family, store, opts.jobs,
                                     solo, fa_bound, sinks);
    });
}

std::vector<onepass::TraceProfile>
profile(const EngineOptions &opts, const hier::HierarchyParams &base,
        const onepass::CascadeFamilySpec &family, trace::RefSpan refs,
        std::uint64_t warmup_refs,
        const trace::MappedBinaryTrace *mapped, bool solo)
{
    return withSinks(opts, [&](const auto &sinks) {
        using Sinks = std::decay_t<decltype(sinks)>;
        onepass::Pipeline<Sinks> pipe(base, family.pivots, family.l3,
                                      warmup_refs, solo, false, sinks);
        return pipe.run(refs, mapped);
    });
}

expt::DesignSpaceGrid
buildGrid(const EngineOptions &opts, const hier::HierarchyParams &base,
          const std::vector<std::uint64_t> &sizes,
          const std::vector<std::uint32_t> &cycles,
          const expt::TraceStore &store)
{
    switch (opts.engine) {
    case Engine::Timing: {
        const std::uint32_t assoc =
            base.levels.empty() ? 1 : base.levels[0].geometry.assoc;
        return expt::parallelBuildGrid(
            sizes, cycles, store,
            [&](std::uint64_t size, std::uint32_t cyc) {
                return base.withL2(size, cyc, assoc);
            },
            opts.jobs);
    }
    case Engine::Sampled:
        if (base.levels.size() != 1)
            mlc_panic("engines: the sampled engine sweeps two-level "
                      "machines only");
        return sample::buildGridCheckpointed(
            base, sizes, cycles, store, opts.sampled, opts.jobs,
            opts.farm, opts.farmTag, opts.farmTally);
    case Engine::OnePass:
    case Engine::Mrc:
        break;
    }
    FamilyProfiles got;
    if (opts.profiles) {
        got = opts.profiles(familyFor(base, sizes));
    } else {
        got.family = familyFor(base, sizes);
        got.profiles =
            std::make_shared<const std::vector<onepass::TraceProfile>>(
                profile(opts, base, got.family, store));
    }
    return onepass::price(base, got.family, *got.profiles, sizes,
                          cycles);
}

} // namespace engines
} // namespace mlc
