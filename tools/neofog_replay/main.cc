/**
 * @file
 * neofog_replay — diff two snapshot files or two snapshot streams.
 *
 * Modes:
 *
 *     neofog_replay A.nfsnap B.nfsnap     compare two snapshot files
 *     neofog_replay DIR_A DIR_B           compare two snapshot streams
 *                                         slot-by-slot (paired by the
 *                                         slot encoded in the name)
 *
 * A directory holding worker0/, worker1/, ... subdirectories (the
 * partitioned layout a distributed run checkpoints into; see
 * src/dist/) is diffed as ONE logical stream: each slot's per-worker
 * files are merged — config/system from worker 0, chain sections in
 * global chain order — after cross-checking that every worker
 * archived the same scenario.  Flat and partitioned streams compare
 * against each other transparently, so "does the --workers 4 run
 * checkpoint the same states as --threads 4?" is one invocation.
 *
 * Output names the first diverging slot and field ("chain0.node3.
 * cap.stored: 1.25 vs 1.5"); later differences are suppressed because
 * they are almost always cascade effects of the first.  This turns
 * "two runs disagree" into a bisection: checkpoint both runs on the
 * same slot grid and the first diverging record pinpoints the
 * subsystem — and, in a partitioned diff, the chain and therefore the
 * worker — that went off-script.
 *
 * Both sides must carry this build's snapshot schema (kSchema,
 * neofog-snapshot-v2): a file of any other version, such as a v1
 * checkpoint with its per-node stored-energy series, is an error
 * (exit 2) that names both tags, never a half-read diff.
 *
 * Exit codes: 0 identical, 1 diverged, 2 usage or I/O error.
 */

#include <algorithm>
#include <cinttypes>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "snapshot/replay.hh"
#include "snapshot/snapshot.hh"

namespace {

using neofog::snapshot::DiffResult;
using neofog::snapshot::Section;
using neofog::snapshot::Snapshot;

void printDivergence(const std::string &label, const DiffResult &diff)
{
    std::printf("DIVERGED %s [%s]", label.c_str(), diff.where.c_str());
    if (!diff.path.empty())
        std::printf(" %s", diff.path.c_str());
    std::printf(": %s\n", diff.detail.c_str());
}

/** Compare two loaded snapshots; returns the process exit code. */
int diffLoaded(const Snapshot &a, const Snapshot &b,
               const std::string &label)
{
    const DiffResult diff = neofog::snapshot::diffSnapshots(a, b);
    if (!diff.diverged) {
        std::printf("identical %s (slot %" PRId64 ", %zu sections)\n",
                    label.c_str(), a.slot, a.sections.size());
        return 0;
    }
    printDivergence(label, diff);
    return 1;
}

/** Compare two snapshot files; returns the process exit code. */
int diffFiles(const std::string &pathA, const std::string &pathB,
              const std::string &label)
{
    return diffLoaded(neofog::snapshot::readSnapshot(pathA),
                      neofog::snapshot::readSnapshot(pathB), label);
}

/** Slot -> file map of the snap-*.nfsnap files in a directory. */
std::map<std::int64_t, std::string> snapshotsIn(const std::string &dir)
{
    std::map<std::int64_t, std::string> found;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        long long slot = 0;
        if (std::sscanf(name.c_str(), "snap-%lld.nfsnap", &slot) != 1)
            continue;
        if (name != neofog::snapshot::snapshotFileName(slot))
            continue;
        found[slot] = entry.path().string();
    }
    return found;
}

/** worker0, worker1, ... subdirectory paths; empty when @p dir is flat. */
std::vector<std::string> workerDirsIn(const std::string &dir)
{
    std::vector<std::string> dirs;
    for (std::size_t w = 0;; ++w) {
        const std::string sub = dir + "/worker" + std::to_string(w);
        if (!std::filesystem::is_directory(sub))
            break;
        dirs.push_back(sub);
    }
    return dirs;
}

/** Chain index of a "chain<k>" section name, or -1 for other names. */
long long chainIndexOf(const std::string &name)
{
    long long idx = -1;
    if (std::sscanf(name.c_str(), "chain%lld", &idx) != 1 || idx < 0)
        return -1;
    if (name != "chain" + std::to_string(idx))
        return -1;
    return idx;
}

/**
 * Merge one slot's per-worker snapshot files (worker order) into the
 * flat section layout: config and system from worker 0, then every
 * chain section in global chain order — the exact order a
 * single-process checkpoint writes, so diffSnapshots() pairs sections
 * without knowing the stream was partitioned.
 */
Snapshot loadMergedSlot(const std::vector<std::string> &paths)
{
    Snapshot merged;
    std::map<long long, Section> chains;
    for (std::size_t w = 0; w < paths.size(); ++w) {
        const Snapshot part = neofog::snapshot::readSnapshot(paths[w]);
        if (w == 0) {
            merged.slot = part.slot;
            merged.configHash = part.configHash;
            merged.seed = part.seed;
            merged.chains = part.chains;
            for (const auto &section : part.sections)
                if (chainIndexOf(section.name) < 0)
                    merged.sections.push_back(section);
        } else if (part.configHash != merged.configHash
                   || part.seed != merged.seed
                   || part.slot != merged.slot
                   || part.chains != merged.chains) {
            neofog::fatal("worker ", w, " snapshot ", paths[w],
                          " disagrees with worker 0 on scenario/slot",
                          " — mixed runs in one partitioned directory?");
        }
        for (const auto &section : part.sections) {
            const long long idx = chainIndexOf(section.name);
            if (idx < 0)
                continue;
            if (!chains.emplace(idx, section).second)
                neofog::fatal("chain ", idx,
                              " archived by two workers (second copy in ",
                              paths[w], ") — overlapping partitions?");
        }
    }
    for (auto &[idx, section] : chains) {
        (void)idx;
        merged.sections.push_back(std::move(section));
    }
    return merged;
}

/** One logical snapshot stream: slot -> the files composing it. */
struct Stream
{
    std::string dir;
    std::vector<std::string> workers; ///< empty for a flat directory
    std::map<std::int64_t, std::vector<std::string>> slots;
};

/**
 * Index a snapshot directory, flat or partitioned.  In a partitioned
 * directory a slot only qualifies when EVERY worker checkpointed it —
 * a worker killed mid-checkpoint leaves a file behind on some workers
 * only, and diffing that torn set would masquerade as divergence.
 */
Stream openStream(const std::string &dir)
{
    Stream stream;
    stream.dir = dir;
    stream.workers = workerDirsIn(dir);
    if (stream.workers.empty()) {
        for (const auto &[slot, path] : snapshotsIn(dir))
            stream.slots[slot] = {path};
        return stream;
    }
    std::map<std::int64_t, std::vector<std::string>> partial;
    for (const auto &wdir : stream.workers)
        for (const auto &[slot, path] : snapshotsIn(wdir))
            partial[slot].push_back(path);
    for (auto &[slot, paths] : partial) {
        if (paths.size() == stream.workers.size())
            stream.slots[slot] = std::move(paths);
        else
            std::printf("slot %" PRId64 ": incomplete in %s (%zu/%zu "
                        "workers), skipped\n",
                        slot, dir.c_str(), paths.size(),
                        stream.workers.size());
    }
    return stream;
}

/** Load a slot's snapshot, merging per-worker shards when needed. */
Snapshot loadSlot(const Stream &stream,
                  const std::vector<std::string> &paths)
{
    if (stream.workers.empty())
        return neofog::snapshot::readSnapshot(paths.front());
    return loadMergedSlot(paths);
}

/** Compare two snapshot directories slot-by-slot, ascending. */
int diffStreams(const std::string &dirA, const std::string &dirB)
{
    const Stream a = openStream(dirA);
    const Stream b = openStream(dirB);
    for (const Stream *stream : {&a, &b})
        if (!stream->workers.empty())
            std::printf("%s: partitioned layout, %zu workers\n",
                        stream->dir.c_str(), stream->workers.size());
    if (a.slots.empty() || b.slots.empty()) {
        std::fprintf(stderr, "error: no snap-*.nfsnap files in %s\n",
                     (a.slots.empty() ? dirA : dirB).c_str());
        return 2;
    }

    bool unpaired = false;
    for (const auto &[slot, paths] : a.slots) {
        const auto other = b.slots.find(slot);
        if (other == b.slots.end()) {
            std::printf("slot %" PRId64 ": only in %s\n", slot,
                        dirA.c_str());
            unpaired = true;
            continue;
        }
        const std::string label = "slot " + std::to_string(slot);
        const int rc = diffLoaded(loadSlot(a, paths),
                                  loadSlot(b, other->second), label);
        if (rc != 0)
            return rc; // first diverging slot ends the bisection
    }
    for (const auto &[slot, paths] : b.slots)
        if (!a.slots.count(slot)) {
            std::printf("slot %" PRId64 ": only in %s\n", slot,
                        dirB.c_str());
            unpaired = true;
        }
    return unpaired ? 1 : 0;
}

void usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <A.nfsnap> <B.nfsnap>\n"
                 "       %s <snapshot-dir-A> <snapshot-dir-B>\n"
                 "\n"
                 "Directories holding worker0/, worker1/, ... (the\n"
                 "partitioned layout of a --workers run) are merged\n"
                 "per slot and diff transparently against flat or\n"
                 "partitioned streams.\n"
                 "\n"
                 "Reads %s files only.\n",
                 argv0, argv0, neofog::snapshot::kSchema);
}

} // namespace

int main(int argc, char **argv)
{
    if (argc != 3) {
        usage(argv[0]);
        return 2;
    }
    const std::string a = argv[1];
    const std::string b = argv[2];
    try {
        const bool dirA = std::filesystem::is_directory(a);
        const bool dirB = std::filesystem::is_directory(b);
        if (dirA != dirB) {
            std::fprintf(stderr,
                         "error: cannot mix a file and a directory\n");
            return 2;
        }
        return dirA ? diffStreams(a, b) : diffFiles(a, b, "snapshot");
    } catch (const neofog::FatalError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 2;
    } catch (const std::filesystem::filesystem_error &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 2;
    }
}
